package experiments

import (
	"fmt"
	"strings"

	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/vm"
)

// NATRebindResult reproduces the §V-E qualitative observation: "the
// overlay network has also been resilient to changes in NAT IP/port
// translations ... IPOP dealt with these translation changes autonomously
// by detecting broken links and re-establishing them."
type NATRebindResult struct {
	// OutageSeconds per trial: from the NAT flushing its translation
	// tables until the node answers virtual pings again.
	OutageSeconds []float64
	// Recovered reports whether every trial healed within the window.
	Recovered bool
}

// String renders the result.
func (r *NATRebindResult) String() string {
	var b strings.Builder
	b.WriteString("§V-E NAT rebinding resilience (home node, translation tables flushed):\n")
	for i, s := range r.OutageSeconds {
		fmt.Fprintf(&b, "  trial %d: connectivity restored after %.0f s\n", i+1, s)
	}
	fmt.Fprintf(&b, "  all trials recovered autonomously: %v (paper: links re-established, no restart)\n", r.Recovered)
	return b.String()
}

// RunNATRebind flushes the home node's outermost NAT (node034's ISP-level
// box) trials times and measures how long the overlay takes to detect the
// broken links and re-establish them — with no process restart anywhere.
func RunNATRebind(seed int64, trials int) (*NATRebindResult, error) {
	f, err := newFabric("natrebind", seed, 1, 1, 0,
		phys.PathModel{OneWay: sim.Millisecond}, phys.PathModel{OneWay: 15 * sim.Millisecond})
	if err != nil {
		return nil, err
	}
	defer f.close()
	s, net := f.timeline(), f.net
	// A small public overlay plus one node behind a rebinding NAT.
	w, err := buildSmallOverlay(f, 24)
	if err != nil {
		return nil, fmt.Errorf("natrebind: %w", err)
	}
	nat := natsim.NewNAT("isp", natsim.Config{Type: natsim.PortRestricted}, net.Root().NextIP(), s.Now)
	realm := net.AddRealm("home", net.Root(), nat, phys.MustParseIP("192.168.1.10"))
	host := net.AddHost("home-host", net.AddSite("home"), realm, phys.HostConfig{})
	home, err := w.AddWorkstation(host, mustVIP("172.16.1.34"), vm.Spec{Name: "node034", CPUSpeed: 0.49})
	if err != nil {
		return nil, fmt.Errorf("natrebind: %w", err)
	}
	prober := w.Workstations()[0]
	s.RunFor(2 * sim.Minute)

	res := &NATRebindResult{Recovered: true}
	for trial := 0; trial < trials; trial++ {
		// Confirm connectivity, then flush the NAT.
		if !pingOK(s, prober, home.IP()) {
			res.Recovered = false
			break
		}
		nat.Rebind()
		recovered, ok := firstReply(s, prober, home.IP(), 10*sim.Minute)
		res.Recovered = res.Recovered && ok
		res.OutageSeconds = append(res.OutageSeconds, recovered)
		s.RunFor(sim.Minute)
	}
	return res, nil
}

// ChurnResult measures overlay self-repair under bulk router failure —
// the paper's §V-E stability observation ("several physical nodes have
// been shut down and restarted during this period") taken to a harsher
// extreme.
type ChurnResult struct {
	KilledRouters int
	TotalRouters  int
	// RecoverySeconds is the time until every probe pair pings
	// successfully again.
	RecoverySeconds float64
	// Healed reports full recovery within the window.
	Healed bool
}

// String renders the result.
func (r *ChurnResult) String() string {
	return fmt.Sprintf("Churn: killed %d/%d routers; virtual network healed in %.0f s (healed=%v)\n",
		r.KilledRouters, r.TotalRouters, r.RecoverySeconds, r.Healed)
}

// churnFraction is the share of the PlanetLab routers a churn experiment
// takes down.
const churnFraction = 0.25

// RunChurn kills churnFraction of the PlanetLab routers at once and
// measures how long until all compute-node pairs are mutually reachable
// again.
func RunChurn(seed int64) *ChurnResult {
	tb := testbed.Build(testbed.Config{Seed: seed, Shortcuts: true, SettleTime: 5 * sim.Minute})
	routers := tb.Routers()
	kill := int(float64(len(routers)) * churnFraction)
	for i := 0; i < kill; i++ {
		routers[i*len(routers)/kill].Stop()
	}
	killedAt := tb.Sim.Now()

	pairs := [][2]string{
		{"node003", "node017"}, {"node004", "node030"}, {"node005", "node032"},
		{"node018", "node033"}, {"node019", "node034"},
	}
	res := &ChurnResult{KilledRouters: kill, TotalRouters: len(routers)}
	res.RecoverySeconds, res.Healed = healedAfter(tb, pairs, killedAt, 10*sim.Second)
	return res
}

// LiveMigrationResult compares suspend-transfer-resume migration against
// iterative pre-copy live migration (§VI: "growing support for
// checkpointing and live migration").
type LiveMigrationResult struct {
	// SuspendStallSeconds is the SCP stall across a suspend-copy
	// migration; LiveStallSeconds across a live pre-copy migration.
	SuspendStallSeconds, LiveStallSeconds float64
	// BothCompleted reports both transfers finished without restarts.
	BothCompleted bool
}

// String renders the comparison.
func (r *LiveMigrationResult) String() string {
	return fmt.Sprintf("Live vs suspend migration under SCP:\n"+
		"  suspend-transfer-resume stall: %6.0f s (the paper's method, Fig. 6)\n"+
		"  iterative pre-copy stall:      %6.0f s\n"+
		"  both transfers completed:       %v\n",
		r.SuspendStallSeconds, r.LiveStallSeconds, r.BothCompleted)
}

// RunLiveMigration runs the Figure 6 scenario twice — once with the
// paper's suspend-copy migration and once with live pre-copy — and
// compares the client-visible stalls.
func RunLiveMigration(seed int64) (*LiveMigrationResult, error) {
	opts := Fig6Opts{Seed: seed, FileBytes: 256 << 20}
	suspend, err := runFig6(opts, (*vm.VM).Migrate)
	if err != nil {
		return nil, err
	}
	live, err := runFig6(opts, (*vm.VM).MigrateLive)
	if err != nil {
		return nil, err
	}
	return &LiveMigrationResult{
		SuspendStallSeconds: suspend.StallSeconds,
		LiveStallSeconds:    live.StallSeconds,
		BothCompleted:       suspend.Completed && live.Completed,
	}, nil
}
