package experiments

import (
	"fmt"
	"sort"
	"strings"

	"wow/internal/metrics"
	"wow/internal/middleware/pbs"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/workloads"
)

// Fig8Opts parameterizes the high-throughput MEME batch experiment of
// §V-D1 (Figure 8 and the 53 vs 22 jobs/minute result).
type Fig8Opts struct {
	Seed int64
	// Jobs is the batch size; the paper ran 4000.
	Jobs int
	// Shortcuts toggles the overlord, the experiment's comparison axis.
	Shortcuts bool
	// Routers / PlanetLabHosts size the overlay; zero takes the testbed's
	// defaults (the paper's 118 routers on 20 hosts).
	Routers, PlanetLabHosts int
}

func (o *Fig8Opts) fillDefaults() {
	if o.Jobs == 0 {
		o.Jobs = 4000
	}
}

// fig8SubmitInterval is the qsub pacing; the paper submitted 1 job/s.
const fig8SubmitInterval = sim.Second

// Fig8Result summarizes one MEME batch run.
type Fig8Result struct {
	Shortcuts bool
	Jobs      int
	// Histogram bins job wall-clock times as Figure 8 does (16-second
	// bins labelled 8, 24, 40, 56, 72, 88).
	Histogram *metrics.Histogram
	// MeanSeconds / StdSeconds of job wall times (paper: 24.1 ± 6.5
	// with shortcuts; 32.2 ± 9.7 without).
	MeanSeconds, StdSeconds float64
	// WallClockSeconds is time from first submission to last completion
	// (paper: 4565 s with shortcuts).
	WallClockSeconds float64
	// JobsPerMinute is the overall throughput (paper: 53 vs 22).
	JobsPerMinute float64
	// JobShare maps node name -> fraction of all jobs it ran (paper:
	// node032 1.6%, node033 4.2%).
	JobShare map[string]float64
	// Failed counts jobs that did not complete OK.
	Failed int
}

// String renders the result in the paper's terms.
func (r *Fig8Result) String() string {
	var b strings.Builder
	label := "disabled"
	if r.Shortcuts {
		label = "enabled"
	}
	fmt.Fprintf(&b, "Figure 8 / §V-D1: %d PBS/MEME jobs, shortcuts %s\n", r.Jobs, label)
	fmt.Fprintf(&b, "  wall-clock time: %.0f s; throughput %.1f jobs/minute\n", r.WallClockSeconds, r.JobsPerMinute)
	fmt.Fprintf(&b, "  job wall time: mean %.1f s, std %.1f s (failed: %d)\n", r.MeanSeconds, r.StdSeconds, r.Failed)
	b.WriteString("  execution-time histogram:\n")
	freqs := r.Histogram.Frequencies()
	for i, f := range freqs {
		fmt.Fprintf(&b, "    %4.0f s: %5.1f%% %s\n", r.Histogram.BinCenter(i), f*100, strings.Repeat("#", int(f*80+0.5)))
	}
	names := make([]string, 0, len(r.JobShare))
	for n := range r.JobShare {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteString("  job share by node:")
	for _, n := range names {
		if n == "node032" || n == "node033" || n == "node034" {
			fmt.Fprintf(&b, " %s=%.1f%%", n, r.JobShare[n]*100)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// RunFig8 reproduces §V-D1: a stream of short MEME jobs submitted at
// 1 job/second to a PBS head (node002, UFL) scheduling over all 33 WOW
// compute nodes, with input staged from and output committed to the
// head's NFS export.
func RunFig8(opts Fig8Opts) (*Fig8Result, error) {
	opts.fillDefaults()
	tb := testbed.Build(testbed.Config{
		Seed:           opts.Seed,
		Shortcuts:      opts.Shortcuts,
		Routers:        opts.Routers,
		PlanetLabHosts: opts.PlanetLabHosts,
		SettleTime:     5 * sim.Minute,
	})
	head := tb.VM("node002")
	pbsHead, err := pbsCluster(tb, "fig8", head, tb.Workstations())
	if err != nil {
		return nil, err
	}

	res := &Fig8Result{
		Shortcuts: opts.Shortcuts,
		Jobs:      opts.Jobs,
		Histogram: metrics.NewHistogram(0, 16, 6),
		JobShare:  make(map[string]float64),
	}
	var walls []float64
	var firstSubmit, lastDone sim.Time
	done := 0
	pbsHead.OnJobDone(func(rec *pbs.JobRecord) {
		done++
		if !rec.OK {
			res.Failed++
			return
		}
		w := rec.WallSeconds()
		walls = append(walls, w)
		res.Histogram.Add(w)
		res.JobShare[rec.Worker]++
		lastDone = tb.Sim.Now()
	})

	meme := workloads.DefaultMEME()
	rng := tb.Sim.Rand()
	firstSubmit = tb.Sim.Now()
	for i := 0; i < opts.Jobs; i++ {
		tb.Sim.At(firstSubmit.Add(sim.Duration(i)*fig8SubmitInterval), func() {
			pbsHead.Submit(meme.Job(i, rng))
		})
	}

	waitFor(tb.Sim, sim.Minute, 48*sim.Hour, func() bool { return done >= opts.Jobs })

	s := metrics.Summarize(walls)
	res.MeanSeconds, res.StdSeconds = s.Mean, s.Std
	res.WallClockSeconds = lastDone.Sub(firstSubmit).Seconds()
	if res.WallClockSeconds > 0 {
		res.JobsPerMinute = float64(len(walls)) / (res.WallClockSeconds / 60)
	}
	for n, c := range res.JobShare {
		res.JobShare[n] = c / float64(opts.Jobs)
	}
	return res, nil
}
