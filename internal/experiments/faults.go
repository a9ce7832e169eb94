package experiments

import (
	"fmt"
	"strings"

	"wow/internal/brunet"
	"wow/internal/faults"
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

// recoveryNames are the fault-handling counters every resilience
// experiment reports, in presentation order: the detection path
// (ping.dead, ping.stale, fast probes, forwarded closes), the graceful
// path (handoffs), and the repair path (re-links, link give-ups).
var recoveryNames = []string{
	"ping.dead",
	"ping.stale",
	"ping.fast_probe",
	"close.forwarded",
	"handoff.sent",
	"handoff.received",
	"handoff.linked",
	"relink.attempts",
	"relink.success",
	"relink.giveup",
	"link.giveup",
}

// RecoveryReport is the uniform summary a resilience experiment produces:
// how long recovery took and which protocol machinery did the work.
type RecoveryReport struct {
	// Scenario names the experiment ("partition-heal", …).
	Scenario string
	// RecoverySec is the measured time from fault (or heal trigger) to
	// full recovery, in seconds; negative when recovery never completed.
	RecoverySec float64
	// Counters holds how much each recovery counter grew over the
	// experiment, summed over the fleet.
	Counters map[string]int64
}

// String renders the standard recovery table: one scenario line followed by
// every recovery counter. Zeros are printed rather than suppressed — which
// recovery machinery did no work is as informative as which did.
func (r *RecoveryReport) String() string {
	var b strings.Builder
	if r.RecoverySec < 0 {
		fmt.Fprintf(&b, "%-24s recovery: DID NOT RECOVER\n", r.Scenario)
	} else {
		fmt.Fprintf(&b, "%-24s recovery: %.1fs\n", r.Scenario, r.RecoverySec)
	}
	for _, name := range recoveryNames {
		fmt.Fprintf(&b, "  %-22s %d\n", name, r.Counters[name])
	}
	return b.String()
}

// recoveryCounts sums each recovery counter over the testbed's live nodes.
func recoveryCounts(tb *testbed.Testbed) map[string]int64 {
	live := liveOverlays(tb)
	c := make(map[string]int64, len(recoveryNames))
	for _, name := range recoveryNames {
		c[name] = statTotal(live, name)
	}
	return c
}

// recoveryDelta reports how much each recovery counter grew between two
// snapshots, clamped at zero (a node restarted in between resets its own
// counts).
func recoveryDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(recoveryNames))
	for _, name := range recoveryNames {
		d[name] = max(after[name]-before[name], 0)
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

// FaultOpts parameterizes the fault harnesses: the §V-C migration window,
// partition repair and the correlated churn wave.
type FaultOpts struct {
	Seed int64
	// Routers / PlanetLabHosts size the overlay (default 40 on 8 hosts).
	Routers, PlanetLabHosts int
}

// faultTestbed fills o's defaults in place — RunPartitionHeal reads
// PlanetLabHosts to choose its cut — and builds the settled testbed.
func faultTestbed(o *FaultOpts) *testbed.Testbed {
	if o.Routers == 0 {
		o.Routers = 40
	}
	if o.PlanetLabHosts == 0 {
		o.PlanetLabHosts = 8
	}
	return testbed.Build(testbed.Config{
		Seed:           o.Seed,
		Shortcuts:      true,
		Routers:        o.Routers,
		PlanetLabHosts: o.PlanetLabHosts,
		SettleTime:     5 * sim.Minute,
	})
}

// migrationOutageBps is the VM image copy rate of the §V-C comparison: 2 MB/s
// keeps the transfer much longer than the baseline detection window, so the
// window is measured cleanly before the node reappears.
const migrationOutageBps = 2 << 20

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
	Baseline, Graceful RecoveryReport
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
func RunMigrationOutage(opts FaultOpts) (*MigrationOutageResult, error) {
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

func runMigrationWindow(opts FaultOpts, graceful bool) (float64, RecoveryReport, error) {
	scenario := "migration-cold"
	if graceful {
		scenario = "migration-graceful"
	}
	report := RecoveryReport{Scenario: scenario, RecoverySec: -1}

	tb := faultTestbed(&opts)
	victim := tb.VM("node003")
	victimAddr := victim.Node().Addr()
	dst := tb.NewHostAt("northwestern.edu")

	before := recoveryCounts(tb)
	killAt := tb.Sim.Now()
	cfg := vm.MigrationConfig{TransferBps: migrationOutageBps, Graceful: graceful}
	if err := victim.Migrate(dst, cfg, nil); err != nil {
		return -1, report, fmt.Errorf("%s: %w", scenario, err)
	}

	window := -1.0
	waitFor(tb.Sim, sim.Second, healWindow, func() bool {
		if victim.Node().Up() {
			return true // node restarted at the destination; window censored
		}
		if ringClosedAround(tb, victimAddr) {
			window = tb.Sim.Now().Sub(killAt).Seconds()
			return true
		}
		return false
	})
	report.RecoverySec = window
	report.Counters = recoveryDelta(before, recoveryCounts(tb))
	return window, report, nil
}

// partitionFor is how long the cut lasts: long enough that every
// cross-partition link times out and each side re-forms its own ring, so
// re-merging requires the repair overlord's cached direct re-links.
const partitionFor = 3 * sim.Minute

// PartitionHealResult is the measured repair after a WAN partition.
type PartitionHealResult struct {
	PartitionSeconds float64
	// CutConfirmed reports that cross-partition traffic really was dead
	// mid-window.
	CutConfirmed bool
	// Healed reports that every cross-partition probe pair recovered.
	Healed bool
	Report RecoveryReport
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
func RunPartitionHeal(opts FaultOpts) (*PartitionHealResult, error) {
	tb := faultTestbed(&opts)
	inj := faults.New(tb.Sim, tb.Net)
	defer inj.Close()

	cutSites := []string{"northwestern.edu"}
	for h := 0; h < opts.PlanetLabHosts/2; h++ {
		cutSites = append(cutSites, fmt.Sprintf("planetlab%02d", h))
	}
	inj.Schedule(faults.Partition{A: faults.AtSites(cutSites...), From: 0, For: partitionFor})
	cutAt := tb.Sim.Now()
	before := recoveryCounts(tb)

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
	res.Report = RecoveryReport{Scenario: "partition-heal", RecoverySec: -1}
	if sec, ok := healedAfter(tb, pairs, healAt, 5*sim.Second); ok {
		res.Healed, res.Report.RecoverySec = true, sec
	}
	res.Report.Counters = recoveryDelta(before, recoveryCounts(tb))
	res.Timeline = inj.Timeline()
	return res, nil
}

// The churn wave: churnFraction of the PlanetLab routers (the same share
// RunChurn kills at once), one killed every churnSpacing, each down for
// churnDown. With churnDown spanning several spacings the wave overlaps:
// the overlay repairs under continued fire.
const (
	churnSpacing = 5 * sim.Second
	churnDown    = 45 * sim.Second
)

// ChurnWaveResult is the measured recovery from a correlated churn wave.
type ChurnWaveResult struct {
	Churned, Total int
	// Healed reports that every probe pair recovered after the wave.
	Healed bool
	Report RecoveryReport
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
func RunCorrelatedChurn(opts FaultOpts) (*ChurnWaveResult, error) {
	tb := faultTestbed(&opts)
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
	before := recoveryCounts(tb)
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
	res.Report = RecoveryReport{Scenario: "correlated-churn", RecoverySec: -1}
	if sec, ok := healedAfter(tb, pairs, lastRestart, 5*sim.Second); ok {
		res.Healed, res.Report.RecoverySec = true, sec
	}
	res.Report.Counters = recoveryDelta(before, recoveryCounts(tb))
	return res, nil
}
