package experiments

import (
	"fmt"
	"strings"

	"wow/internal/brunet"
	"wow/internal/faults"
	"wow/internal/metrics"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/vm"
)

// liveOverlays returns the running Brunet nodes of every router and
// workstation in the testbed.
func liveOverlays(tb *testbed.Testbed) []*brunet.Node {
	var out []*brunet.Node
	for _, r := range tb.Routers() {
		if bn := r.Overlay(); bn != nil && bn.Up() {
			out = append(out, bn)
		}
	}
	for _, v := range tb.Workstations() {
		if bn := v.Node().Overlay(); bn != nil && bn.Up() {
			out = append(out, bn)
		}
	}
	return out
}

// snapshotRecovery merges every live node's protocol counters into one
// fleet-wide view.
func snapshotRecovery(tb *testbed.Testbed) metrics.Counter {
	var c metrics.Counter
	for _, bn := range liveOverlays(tb) {
		c.Merge(&bn.Stats)
	}
	return c
}

// recoveryDelta reports how much each recovery counter grew between two
// snapshots, clamped at zero (a node restarted in between resets its own
// counts).
func recoveryDelta(before, after metrics.Counter) metrics.Counter {
	var d metrics.Counter
	for _, name := range metrics.RecoveryNames {
		if v := after.Get(name) - before.Get(name); v > 0 {
			d.Inc(name, v)
		}
	}
	return d
}

// ringClosedAround reports whether the overlay has fully repaired the ring
// around a departed node's address: no live node still holds a connection
// to it, and the departed node's closest live ring neighbors hold a
// structured-near link to each other (the hole is closed).
func ringClosedAround(tb *testbed.Testbed, gone brunet.Addr) bool {
	nodes := liveOverlays(tb)
	var pred, succ *brunet.Node
	var predD, succD brunet.Addr
	for _, bn := range nodes {
		if bn.ConnectionTo(gone) != nil {
			return false // stale connection state survives
		}
		cw := bn.Addr().Clockwise(gone)
		ccw := gone.Clockwise(bn.Addr())
		if pred == nil || cw.Less(predD) {
			pred, predD = bn, cw
		}
		if succ == nil || ccw.Less(succD) {
			succ, succD = bn, ccw
		}
	}
	if pred == nil || pred == succ {
		return true
	}
	c := pred.ConnectionTo(succ.Addr())
	return c != nil && c.Has(brunet.StructuredNear)
}

// renderTimeline appends the injector's fault timeline to a report.
func renderTimeline(b *strings.Builder, tl []faults.TimelineEntry) {
	b.WriteString("  fault timeline:\n")
	for _, e := range tl {
		fmt.Fprintf(b, "    %s\n", e)
	}
}

// MigrationOutageOpts parameterizes the graceful-vs-cold §V-C comparison.
type MigrationOutageOpts struct {
	Seed int64
	// Routers / PlanetLabHosts size the overlay.
	Routers, PlanetLabHosts int
}

// migrationOutageBps is the VM image copy rate of the §V-C comparison: 2 MB/s
// keeps the transfer much longer than the baseline detection window, so the
// window is measured cleanly before the node reappears.
const migrationOutageBps = 2 << 20

func (o *MigrationOutageOpts) fillDefaults() {
	if o.Routers == 0 {
		o.Routers = 40
	}
	if o.PlanetLabHosts == 0 {
		o.PlanetLabHosts = 8
	}
}

// MigrationOutageResult compares the ring-repair window of a cold IPOP
// kill (the paper's §V-C migration procedure) against a graceful leave
// with ring handoff. The window is the time from the kill until no live
// node retains a connection to the departed address and its ring
// neighbors are linked to each other — the interval during which greedy
// routing around that address is degraded. (The end-to-end VIP outage of
// Figure 6 is dominated by the image transfer either way; the window here
// isolates the overlay's contribution.)
type MigrationOutageResult struct {
	// BaselineWindowSec / GracefulWindowSec are the measured windows;
	// negative when the ring never closed before the node returned.
	BaselineWindowSec, GracefulWindowSec float64
	// Baseline / Graceful attribute the repair work: the baseline heals
	// via ping timeouts, fast probes and re-links, the graceful path via
	// leave handoffs.
	Baseline, Graceful metrics.RecoveryReport
}

// String renders the comparison.
func (r *MigrationOutageResult) String() string {
	var b strings.Builder
	b.WriteString("§V-C migration: overlay ring-repair window after IPOP shutdown\n")
	fmt.Fprintf(&b, "  cold kill (peers time out):  %6.1f s\n", r.BaselineWindowSec)
	fmt.Fprintf(&b, "  graceful leave (handoff):    %6.1f s\n", r.GracefulWindowSec)
	b.WriteString(r.Baseline.String())
	b.WriteString(r.Graceful.String())
	return b.String()
}

// RunMigrationOutage runs the §V-C migration twice — once killing IPOP
// cold as the paper did, once departing gracefully — and measures the
// overlay ring-repair window in each mode.
func RunMigrationOutage(opts MigrationOutageOpts) (*MigrationOutageResult, error) {
	opts.fillDefaults()
	res := &MigrationOutageResult{}
	for _, graceful := range []bool{false, true} {
		window, report, err := runMigrationWindow(opts, graceful)
		if err != nil {
			return nil, err
		}
		if graceful {
			res.GracefulWindowSec = window
			res.Graceful = report
		} else {
			res.BaselineWindowSec = window
			res.Baseline = report
		}
	}
	return res, nil
}

func runMigrationWindow(opts MigrationOutageOpts, graceful bool) (float64, metrics.RecoveryReport, error) {
	scenario := "migration-cold"
	if graceful {
		scenario = "migration-graceful"
	}
	report := metrics.RecoveryReport{Scenario: scenario, RecoverySec: -1}

	tb := testbed.Build(testbed.Config{
		Seed:           opts.Seed,
		Shortcuts:      true,
		Routers:        opts.Routers,
		PlanetLabHosts: opts.PlanetLabHosts,
		SettleTime:     5 * sim.Minute,
	})
	victim := tb.VM("node003")
	victimAddr := victim.Node().Addr()
	dst := tb.NewHostAt("northwestern.edu")

	before := snapshotRecovery(tb)
	killAt := tb.Sim.Now()
	cfg := vm.MigrationConfig{TransferBps: migrationOutageBps, Graceful: graceful}
	if err := victim.Migrate(dst, cfg, nil); err != nil {
		return -1, report, fmt.Errorf("%s: %w", scenario, err)
	}

	window := -1.0
	for tb.Sim.Now().Sub(killAt) < 20*sim.Minute {
		tb.Sim.RunFor(sim.Second)
		if victim.Node().Up() {
			break // node restarted at the destination; window censored
		}
		if ringClosedAround(tb, victimAddr) {
			window = tb.Sim.Now().Sub(killAt).Seconds()
			break
		}
	}
	report.RecoverySec = window
	report.Counters = recoveryDelta(before, snapshotRecovery(tb))
	return window, report, nil
}

// PartitionHealOpts parameterizes the partition-and-repair experiment.
type PartitionHealOpts struct {
	Seed int64
	// Routers / PlanetLabHosts size the overlay.
	Routers, PlanetLabHosts int
}

// partitionFor is how long the cut lasts: long enough that every
// cross-partition link times out and each side re-forms its own ring, so
// re-merging requires the repair overlord's cached direct re-links.
const partitionFor = 3 * sim.Minute

func (o *PartitionHealOpts) fillDefaults() {
	if o.Routers == 0 {
		o.Routers = 40
	}
	if o.PlanetLabHosts == 0 {
		o.PlanetLabHosts = 8
	}
}

// PartitionHealResult is the measured repair after a WAN partition.
type PartitionHealResult struct {
	PartitionSeconds float64
	// CutConfirmed reports that cross-partition traffic really was dead
	// mid-window.
	CutConfirmed bool
	// Healed reports that every cross-partition probe pair recovered.
	Healed bool
	Report metrics.RecoveryReport
	// Timeline is the injector's fault record.
	Timeline []faults.TimelineEntry
}

// String renders the result.
func (r *PartitionHealResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Partition repair: %.0f s site cut (NWU + half of PlanetLab vs rest)\n", r.PartitionSeconds)
	fmt.Fprintf(&b, "  cut confirmed mid-window: %v\n", r.CutConfirmed)
	fmt.Fprintf(&b, "  all probe pairs recovered: %v\n", r.Healed)
	b.WriteString(r.Report.String())
	renderTimeline(&b, r.Timeline)
	return b.String()
}

// RunPartitionHeal cuts the Northwestern site plus half the PlanetLab
// hosts off from the rest of the world, holds the partition long enough
// for every cross-side link to die, heals it, and measures how long the
// overlay takes to re-merge into one routable ring.
func RunPartitionHeal(opts PartitionHealOpts) (*PartitionHealResult, error) {
	opts.fillDefaults()
	tb := testbed.Build(testbed.Config{
		Seed:           opts.Seed,
		Shortcuts:      true,
		Routers:        opts.Routers,
		PlanetLabHosts: opts.PlanetLabHosts,
		SettleTime:     5 * sim.Minute,
	})
	inj := faults.New(tb.Sim, tb.Net)
	defer inj.Close()

	cutSites := []string{"northwestern.edu"}
	for h := 0; h < opts.PlanetLabHosts/2; h++ {
		cutSites = append(cutSites, fmt.Sprintf("planetlab%02d", h))
	}
	inj.Schedule(faults.Partition{A: faults.AtSites(cutSites...), From: 0, For: partitionFor})
	cutAt := tb.Sim.Now()
	before := snapshotRecovery(tb)

	// Mid-window: the cut must actually sever cross-partition traffic.
	tb.Sim.RunFor(partitionFor / 2)
	res := &PartitionHealResult{
		PartitionSeconds: partitionFor.Seconds(),
		CutConfirmed:     !pingOK(tb.Sim, tb.VM("node003"), tb.VM("node017").IP()),
	}

	healAt := cutAt.Add(partitionFor)
	if now := tb.Sim.Now(); now < healAt {
		tb.Sim.RunFor(healAt.Sub(now))
	}

	pairs := [][2]string{
		{"node003", "node017"}, {"node017", "node003"},
		{"node004", "node018"}, {"node019", "node030"},
	}
	report := metrics.RecoveryReport{Scenario: "partition-heal", RecoverySec: -1}
	for tb.Sim.Now().Sub(healAt) < 20*sim.Minute {
		allOK := true
		for _, p := range pairs {
			if !pingOK(tb.Sim, tb.VM(p[0]), tb.VM(p[1]).IP()) {
				allOK = false
				break
			}
		}
		if allOK {
			res.Healed = true
			report.RecoverySec = tb.Sim.Now().Sub(healAt).Seconds()
			break
		}
		tb.Sim.RunFor(5 * sim.Second)
	}
	report.Counters = recoveryDelta(before, snapshotRecovery(tb))
	res.Report = report
	res.Timeline = inj.Timeline()
	return res, nil
}

// ChurnWaveOpts parameterizes the correlated-churn experiment.
type ChurnWaveOpts struct {
	Seed int64
	// Routers / PlanetLabHosts size the overlay.
	Routers, PlanetLabHosts int
}

// The churn wave: churnFraction of the PlanetLab routers (the same share
// RunChurn kills at once), one killed every churnSpacing, each down for
// churnDown. With churnDown spanning several spacings the wave overlaps:
// the overlay repairs under continued fire.
const (
	churnSpacing = 5 * sim.Second
	churnDown    = 45 * sim.Second
)

func (o *ChurnWaveOpts) fillDefaults() {
	if o.Routers == 0 {
		o.Routers = 40
	}
	if o.PlanetLabHosts == 0 {
		o.PlanetLabHosts = 8
	}
}

// ChurnWaveResult is the measured recovery from a correlated churn wave.
type ChurnWaveResult struct {
	Churned, Total int
	// Healed reports that every probe pair recovered after the wave.
	Healed bool
	Report metrics.RecoveryReport
	// Timeline is the injector's kill/restart record.
	Timeline []faults.TimelineEntry
}

// String renders the result.
func (r *ChurnWaveResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Correlated churn: wave cycled %d/%d routers (overlapping outages)\n", r.Churned, r.Total)
	fmt.Fprintf(&b, "  all probe pairs recovered: %v\n", r.Healed)
	b.WriteString(r.Report.String())
	renderTimeline(&b, r.Timeline)
	return b.String()
}

// RunCorrelatedChurn rolls a staggered kill+restart wave across a fraction
// of the PlanetLab routers — outages overlap, so the overlay repairs while
// still losing nodes — and measures the time from the last restart until
// every compute probe pair is mutually reachable again.
func RunCorrelatedChurn(opts ChurnWaveOpts) (*ChurnWaveResult, error) {
	opts.fillDefaults()
	tb := testbed.Build(testbed.Config{
		Seed:           opts.Seed,
		Shortcuts:      true,
		Routers:        opts.Routers,
		PlanetLabHosts: opts.PlanetLabHosts,
		SettleTime:     5 * sim.Minute,
	})
	inj := faults.New(tb.Sim, tb.Net)
	defer inj.Close()

	routers := tb.Routers()
	churn := int(float64(len(routers)) * churnFraction)
	var lastRestart sim.Time
	var restartErr error
	targets := make([]faults.ChurnTarget, 0, churn)
	for i := 0; i < churn; i++ {
		r := routers[i*len(routers)/churn]
		targets = append(targets, faults.ChurnTarget{
			Name: fmt.Sprintf("%03d", i*len(routers)/churn),
			Kill: func() { r.Stop() },
			Restart: func() {
				if err := r.Start(tb.Boot()); err != nil && restartErr == nil {
					restartErr = fmt.Errorf("churnwave: restart: %w", err)
				}
				lastRestart = tb.Sim.Now()
			},
		})
	}
	before := snapshotRecovery(tb)
	inj.Schedule(faults.ChurnWave{
		Targets: targets,
		From:    sim.Second,
		Spacing: churnSpacing,
		Jitter:  churnSpacing / 2,
		Down:    churnDown,
	})
	// Run out the whole wave: worst case every kill lands spacing + jitter
	// after the previous one, plus the final outage.
	waveSpan := sim.Second + sim.Duration(churn)*(churnSpacing+churnSpacing/2) + churnDown + 10*sim.Second
	tb.Sim.RunFor(waveSpan)
	if restartErr != nil {
		return nil, restartErr
	}

	res := &ChurnWaveResult{Churned: churn, Total: len(routers)}
	res.Timeline = inj.Timeline()
	pairs := [][2]string{
		{"node003", "node017"}, {"node004", "node030"},
		{"node018", "node033"}, {"node019", "node034"},
	}
	report := metrics.RecoveryReport{Scenario: "correlated-churn", RecoverySec: -1}
	for tb.Sim.Now().Sub(lastRestart) < 20*sim.Minute {
		allOK := true
		for _, p := range pairs {
			if !pingOK(tb.Sim, tb.VM(p[0]), tb.VM(p[1]).IP()) {
				allOK = false
				break
			}
		}
		if allOK {
			res.Healed = true
			report.RecoverySec = tb.Sim.Now().Sub(lastRestart).Seconds()
			break
		}
		tb.Sim.RunFor(5 * sim.Second)
	}
	report.Counters = recoveryDelta(before, snapshotRecovery(tb))
	res.Report = report
	return res, nil
}
