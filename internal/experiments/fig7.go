package experiments

import (
	"fmt"
	"strings"

	"wow/internal/middleware/nfs"
	"wow/internal/middleware/pbs"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/vm"
	"wow/internal/workloads"
)

// Fig7Opts parameterizes the PBS-job-stream-across-migration experiment
// of §V-C2.
type Fig7Opts struct {
	Seed int64
	// Jobs is how many sequential MEME jobs to stream through the
	// worker.
	Jobs int
}

func (o *Fig7Opts) fillDefaults() {
	if o.Jobs == 0 {
		o.Jobs = 120
	}
}

// Figure 7's timeline: background load of fig7HostLoad lands on the
// worker's host at job fig7LoadAtJob (the imbalance that motivates
// migrating), and the migration starts while job fig7MigrateAtJob runs (88
// in the paper's figure).
const (
	fig7LoadAtJob    = 55
	fig7MigrateAtJob = 88
	fig7HostLoad     = 2.5
)

// Fig7Point is one job's execution record.
type Fig7Point struct {
	JobID       int
	WallSeconds float64
	// Phase annotates the experiment timeline: "baseline", "loaded",
	// "migrating" or "migrated".
	Phase string
}

// Fig7Result is the per-job execution-time profile around a worker
// migration.
type Fig7Result struct {
	Points []Fig7Point
	// Means per phase.
	BaselineMean, LoadedMean, MigratedMean float64
	// MigrationJobSeconds is the wall time of the job that was in
	// transit during migration (paper: stretched by hundreds of
	// seconds but completes).
	MigrationJobSeconds float64
	// AllSucceeded reports whether every job ran to completion and
	// committed output to NFS.
	AllSucceeded bool
}

// String renders the summary.
func (r *Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: PBS/MEME job stream across worker migration\n")
	fmt.Fprintf(&b, "  all jobs completed: %v\n", r.AllSucceeded)
	fmt.Fprintf(&b, "  baseline mean: %.1f s\n", r.BaselineMean)
	fmt.Fprintf(&b, "  loaded-host mean: %.1f s\n", r.LoadedMean)
	fmt.Fprintf(&b, "  in-transit job: %.0f s (stretched by the WAN migration latency)\n", r.MigrationJobSeconds)
	fmt.Fprintf(&b, "  post-migration mean: %.1f s (unloaded destination host)\n", r.MigratedMean)
	return b.String()
}

// RunFig7 reproduces §V-C2: a PBS head at UFL streams MEME jobs to a
// single worker VM at UFL; background load is added to the worker's host,
// then the VM is migrated to an unloaded host at NWU while a job runs.
// The in-flight job must complete (late), subsequent jobs speed up, and
// no application ever restarts.
func RunFig7(opts Fig7Opts) (*Fig7Result, error) {
	opts.fillDefaults()
	tb := testbed.Build(testbed.Config{
		Seed:       opts.Seed,
		Shortcuts:  true,
		SettleTime: 5 * sim.Minute,
	})
	head := tb.VM("node002")
	worker := tb.VM("node003")

	nfsSrv, err := nfs.NewServer(head.Stack())
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	meme := workloads.DefaultMEME()
	nfsSrv.Put(meme.InputPath, meme.InputBytes)
	pbsHead, err := pbs.NewHead(head.Stack())
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	if _, err := pbs.NewMOM(worker, head.IP()); err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	tb.Sim.RunFor(2 * sim.Minute) // registration + shortcut warmup

	res := &Fig7Result{AllSucceeded: true}
	var migErr error
	rng := tb.Sim.Rand()
	phase := "baseline"
	migrating := false

	var submit func(i int)
	submit = func(i int) {
		if i >= opts.Jobs {
			return
		}
		if i == fig7LoadAtJob {
			worker.SetHostLoad(fig7HostLoad)
			phase = "loaded"
		}
		if i == fig7MigrateAtJob {
			phase = "migrating"
			migrating = true
			// Migrate while the job is in flight: schedule just
			// after dispatch.
			tb.Sim.After(5*sim.Second, func() {
				dst := tb.NewHostAt("northwestern.edu")
				if err := worker.Migrate(dst, vm.MigrationConfig{TransferBps: paperImageBps}, func() {
					// Destination host is unloaded.
					worker.SetHostLoad(1)
				}); err != nil {
					migErr = fmt.Errorf("fig7: migrate: %w", err)
					tb.Sim.Stop()
				}
			})
		}
		p := phase
		pbsHead.OnJobDone(func(rec *pbs.JobRecord) {
			if !rec.OK {
				res.AllSucceeded = false
			}
			if migrating && p == "migrating" {
				res.MigrationJobSeconds = rec.WallSeconds()
				migrating = false
				phase = "migrated"
			}
			res.Points = append(res.Points, Fig7Point{JobID: i + 1, WallSeconds: rec.WallSeconds(), Phase: p})
			submit(i + 1)
		})
		pbsHead.Submit(meme.Job(i+1, rng))
	}
	submit(0)

	deadline := tb.Sim.Now().Add(12 * sim.Hour)
	for len(res.Points) < opts.Jobs && migErr == nil && tb.Sim.Now() < deadline {
		tb.Sim.RunFor(sim.Minute)
	}
	if migErr != nil {
		return nil, migErr
	}
	if len(res.Points) < opts.Jobs {
		res.AllSucceeded = false
	}

	var base, loaded, migrated []float64
	for _, p := range res.Points {
		switch p.Phase {
		case "baseline":
			base = append(base, p.WallSeconds)
		case "loaded":
			loaded = append(loaded, p.WallSeconds)
		case "migrated":
			migrated = append(migrated, p.WallSeconds)
		}
	}
	res.BaselineMean = mean(base)
	res.LoadedMean = mean(loaded)
	res.MigratedMean = mean(migrated)
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
