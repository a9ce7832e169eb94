package experiments

import (
	"fmt"

	"wow/internal/metrics"
	"wow/internal/middleware/condor"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/workloads"
)

// SchedulerComparison contrasts the two middleware stacks the paper's
// introduction proposes deploying inside WOW VMs: the push-model PBS
// batch system it evaluates (§V-D1) and a Condor-style matchmaking pool
// (§I). Both run the same MEME stream on the same 33-node testbed; the
// differences — negotiation-cycle latency vs immediate dispatch —
// surface as throughput and queueing behaviour. ("The choice of different
// middleware implementations running inside WOW can lead to different
// throughput values", §V-D1.)
type SchedulerComparison struct {
	Jobs int
	// PBS metrics.
	PBSJobsPerMinute float64
	PBSMeanSeconds   float64
	// Condor metrics.
	CondorJobsPerMinute float64
	CondorMeanSeconds   float64
	// CondorMatchLatency is the mean submit-to-match delay the
	// negotiation cycle introduces.
	CondorMatchLatency float64
}

// String renders the comparison.
func (r *SchedulerComparison) String() string {
	return fmt.Sprintf("Middleware comparison on the 33-node WOW (%d MEME jobs, shortcuts on):\n"+
		"  PBS (push):            %5.1f jobs/min, job wall mean %5.1f s\n"+
		"  Condor (matchmaking):  %5.1f jobs/min, job wall mean %5.1f s, mean match latency %4.1f s\n",
		r.Jobs, r.PBSJobsPerMinute, r.PBSMeanSeconds,
		r.CondorJobsPerMinute, r.CondorMeanSeconds, r.CondorMatchLatency)
}

// RunSchedulerComparison executes the same job stream under both stacks.
func RunSchedulerComparison(seed int64, jobs int) (*SchedulerComparison, error) {
	if jobs == 0 {
		jobs = 400
	}
	res := &SchedulerComparison{Jobs: jobs}

	// PBS leg reuses the Figure 8 harness.
	f8, err := RunFig8(Fig8Opts{Seed: seed, Jobs: jobs, Shortcuts: true})
	if err != nil {
		return nil, fmt.Errorf("schedulers: pbs leg: %w", err)
	}
	res.PBSJobsPerMinute = f8.JobsPerMinute
	res.PBSMeanSeconds = f8.MeanSeconds

	// Condor leg: same testbed, startd on every VM, schedd+collector on
	// the head.
	tb := testbed.Build(testbed.Config{Seed: seed, Shortcuts: true, SettleTime: 5 * sim.Minute})
	head := tb.VM("node002")
	cm, err := condor.NewCentralManager(head.Stack(), 30*sim.Second)
	if err != nil {
		return nil, fmt.Errorf("schedulers: %w", err)
	}
	schedd := condor.NewSchedd(head.Stack())
	cm.AttachSchedd(schedd)
	// Jobs fetch no NFS data under Condor in this comparison; the CPU
	// stream is identical and the I/O difference is noted in
	// EXPERIMENTS.md.
	var startds []*condor.Startd
	for _, v := range tb.Workstations() {
		sd, err := condor.NewStartd(v, v.Spec().CPUSpeed, head.IP(), 60*sim.Second)
		if err != nil {
			return nil, fmt.Errorf("schedulers: startd %s: %w", v.Name(), err)
		}
		startds = append(startds, sd)
	}
	tb.Sim.RunFor(2 * sim.Minute)

	meme := workloads.DefaultMEME()
	var walls, lat []float64
	done := 0
	var firstSubmit, lastDone sim.Time
	schedd.OnJobDone(func(rec *condor.JobRecord) {
		done++
		if rec.OK {
			walls = append(walls, rec.Finished.Sub(rec.Matched).Seconds())
			lat = append(lat, rec.Matched.Sub(rec.Submitted).Seconds())
			lastDone = tb.Sim.Now()
		}
	})
	rng := tb.Sim.Rand()
	firstSubmit = tb.Sim.Now()
	for i := 0; i < jobs; i++ {
		tb.Sim.At(firstSubmit.Add(sim.Duration(i)*sim.Second), func() {
			spec := meme.Job(i, rng)
			schedd.Submit(condor.JobAd{ID: i, CPU: spec.CPU})
		})
	}
	waitFor(tb.Sim, sim.Minute, 24*sim.Hour, func() bool { return done >= jobs })
	res.CondorMeanSeconds = metrics.Summarize(walls).Mean
	res.CondorMatchLatency = metrics.Summarize(lat).Mean
	if wall := lastDone.Sub(firstSubmit).Seconds(); wall > 0 {
		res.CondorJobsPerMinute = float64(len(walls)) / (wall / 60)
	}
	cm.Close()
	for _, sd := range startds {
		sd.Close()
	}
	return res, nil
}
