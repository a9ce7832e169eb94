package experiments

import (
	"fmt"

	"wow/internal/metrics"
	"wow/internal/sim"
	"wow/internal/testbed"
)

// OutageOpts parameterizes the §V-C IPOP kill/restart measurement on the
// testbed's default overlay (118 routers on 20 hosts), which with the 33 VMs
// gives the paper's "150-node network".
type OutageOpts struct {
	Seed int64
	// Trials of kill+restart.
	Trials int
}

func (o *OutageOpts) fillDefaults() {
	if o.Trials == 0 {
		o.Trials = 5
	}
}

// OutageResult is the measured no-routability window after killing and
// restarting the user-level IPOP process with no VM movement.
type OutageResult struct {
	// Seconds per trial from kill to the first successful virtual ping
	// after restart (restart is immediate).
	Seconds []float64
	Summary metrics.Summary
}

// String renders the measurement.
func (r *OutageResult) String() string {
	return fmt.Sprintf("§V-C no-routability window after IPOP kill+restart (library defaults): mean %.0f s, max %.0f s over %d trials\n"+
		"  (the paper reports ~480 s; this implementation re-links stale ring state on rejoin,\n"+
		"   so bare restarts heal in seconds — the paper-scale outage appears in Figure 6,\n"+
		"   where the VM image transfer dominates)\n",
		r.Summary.Mean, r.Summary.Max, r.Summary.N)
}

// RunOutage measures the §V-C scenario: kill and immediately restart the
// user-level IPOP process on a ~150-node overlay and time the
// no-routability window. The paper observed ~8 minutes; this
// implementation's linking protocol adopts fresh endpoints when a known
// address re-links (Connection relink semantics), so the window here is
// seconds — an implementation improvement the experiment quantifies
// rather than hides. The paper-sized outage is reproduced end-to-end in
// RunFig6, where suspend/transfer/resume dominates.
func RunOutage(opts OutageOpts) (*OutageResult, error) {
	opts.fillDefaults()
	tb := testbed.Build(testbed.Config{
		Seed:       opts.Seed,
		Shortcuts:  true,
		SettleTime: 5 * sim.Minute,
	})
	victim := tb.VM("node003")
	prober := tb.VM("node017")

	res := &OutageResult{}
	for trial := 0; trial < opts.Trials; trial++ {
		// Kill and immediately restart the IPOP process (§V-C: "by
		// simply killing and restarting the user-level IPOP
		// program").
		victim.Node().Stop()
		if err := victim.Node().Start(tb.Boot()); err != nil {
			return nil, fmt.Errorf("outage: restart: %w", err)
		}
		// Stop and Start take no virtual time, so the window opens at the
		// kill; a victim that never answers counts the censored window.
		recovered, _ := firstReply(tb.Sim, prober, victim.IP(), 30*sim.Minute)
		res.Seconds = append(res.Seconds, recovered)
		tb.Sim.RunFor(5 * sim.Minute) // settle before next trial
	}
	res.Summary = metrics.Summarize(res.Seconds)
	return res, nil
}

// VirtOverheadResult is the §V-D1 virtualization overhead check.
type VirtOverheadResult struct {
	// VirtualSeconds / PhysicalSeconds are wall times for the same MEME
	// job inside a WOW VM and on the bare host model.
	VirtualSeconds, PhysicalSeconds float64
	// OverheadPct is the relative slowdown (paper: ~13%).
	OverheadPct float64
}

// String renders the check.
func (r *VirtOverheadResult) String() string {
	return fmt.Sprintf("§V-D1 virtualization overhead: %.1f%% (virtual %.1f s vs physical %.1f s; paper: ~13%%)\n",
		r.OverheadPct, r.VirtualSeconds, r.PhysicalSeconds)
}

// RunVirtOverhead measures the virtual/physical wall-time ratio of a MEME
// job. The 13% is a calibrated model parameter (vm.Spec.VirtOverhead);
// this experiment verifies it propagates to application wall time
// end-to-end rather than re-deriving it.
func RunVirtOverhead(seed int64) *VirtOverheadResult {
	run := func(bare bool) float64 {
		tb := testbed.Build(testbed.Config{
			Seed: seed, Shortcuts: true, Routers: 12, PlanetLabHosts: 4,
			SettleTime: 2 * sim.Minute,
		})
		v := tb.VM("node002")
		// Execute charges CPU × VirtOverhead / speed; the bare host is
		// the same job with the VM's overhead divided out.
		start := tb.Sim.Now()
		var doneAt sim.Time
		cpu := 100 * sim.Second
		if bare {
			cpu = sim.Duration(float64(cpu) / v.Spec().VirtOverhead)
		}
		v.Execute(cpu, func() { doneAt = tb.Sim.Now() })
		tb.Sim.RunFor(sim.Hour)
		return doneAt.Sub(start).Seconds()
	}
	virtual := run(false)
	physical := run(true)
	return &VirtOverheadResult{
		VirtualSeconds:  virtual,
		PhysicalSeconds: physical,
		OverheadPct:     100 * (virtual - physical) / physical,
	}
}
