package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"wow/internal/brunet"
	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/vm"
)

// This file holds the NAT-traversal experiments for the tunnel-edge
// subsystem: a pairwise connectivity matrix over the middlebox taxonomy
// (which pairs can link directly, which require relay-backed tunnel
// edges), and an all-symmetric-NAT ring formation plus VM migration run —
// the worst-case deployment the paper's §IV-C traversal machinery cannot
// serve without relays.
//
// Both experiments run on brunet.FastTestConfig's link-failure constants
// (the ring on natRingConfig, which coarsens its keepalives): tunnel
// fallback is gated on direct linking *failing*, and the paper-default
// retry schedule would spend most of the run budget waiting out dead-URI
// backoff. The topology outcomes (direct vs tunneled, ring consistency)
// are independent of the timing constants.

// natClass is one row/column of the connectivity matrix.
type natClass struct {
	Name string
	Type natsim.NATType
	NAT  bool // false: directly on the public Internet
}

func natClasses() []natClass {
	return []natClass{
		{Name: "public", NAT: false},
		{Name: "cone", Type: natsim.FullCone, NAT: true},
		{Name: "addr-restricted", Type: natsim.RestrictedCone, NAT: true},
		{Name: "port-restricted", Type: natsim.PortRestricted, NAT: true},
		{Name: "symmetric", Type: natsim.Symmetric, NAT: true},
	}
}

// needsTunnel is the ground truth of NAT traversal with bidirectional
// linking (§IV-C): every pair can hole-punch or dial directly except a
// symmetric NAT facing another symmetric or a port-restricted NAT. A
// symmetric NAT allocates a fresh public port per destination, so the
// peer's pinhole (keyed on the port it predicted) never matches — unless
// the peer filters by address only (cone/addr-restricted), or not at all
// (public), in which case the symmetric side's own outbound dial lands.
func needsTunnel(a, b natClass) bool {
	sym := func(c natClass) bool { return c.NAT && c.Type == natsim.Symmetric }
	hardFilter := func(c natClass) bool {
		return c.NAT && (c.Type == natsim.Symmetric || c.Type == natsim.PortRestricted)
	}
	return (sym(a) && hardFilter(b)) || (sym(b) && hardFilter(a))
}

// NATMatrixCell is the measured outcome for one unordered class pair.
type NATMatrixCell struct {
	A, B string
	// Connected reports a structured-near link between the pair.
	Connected bool
	// Tunneled reports that link is a relay-backed tunnel edge.
	Tunneled bool
	// Delivered reports end-to-end overlay delivery in both directions.
	Delivered bool
	// WantTunnel is the traversal ground truth for the pair.
	WantTunnel bool
}

// NATMatrixResult is the full pairwise matrix.
type NATMatrixResult struct {
	Seed  int64
	Cells []NATMatrixCell
}

// Failures counts cells whose outcome contradicts the ground truth.
func (r *NATMatrixResult) Failures() int {
	bad := 0
	for _, c := range r.Cells {
		if !c.Connected || !c.Delivered || c.Tunneled != c.WantTunnel {
			bad++
		}
	}
	return bad
}

// String renders the matrix.
func (r *NATMatrixResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NAT connectivity matrix: structured-near link per class pair, seed %d\n", r.Seed)
	for _, c := range r.Cells {
		outcome := "none"
		switch {
		case c.Connected && c.Tunneled:
			outcome = "tunnel"
		case c.Connected:
			outcome = "direct"
		}
		want := "direct"
		if c.WantTunnel {
			want = "tunnel"
		}
		status := "ok"
		if !c.Connected || !c.Delivered || c.Tunneled != c.WantTunnel {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  %-16s x %-16s %-6s (want %-6s, delivered %v) %s\n",
			c.A, c.B, outcome, want, c.Delivered, status)
	}
	fmt.Fprintf(&b, "  mismatches: %d\n", r.Failures())
	return b.String()
}

// addClassNode starts a brunet node of the given class on net: on the
// public Internet, or on a private host behind a fresh NAT of the class's
// discipline.
func addClassNode(s *sim.Simulator, net *phys.Network, site *phys.Site,
	name string, class natClass, boot []brunet.URI) (*brunet.Node, error) {
	realm := net.Root()
	if class.NAT {
		nat := natsim.NewNAT(name+"-nat", natsim.Config{Type: class.Type}, net.Root().NextIP(), s.Now)
		realm = net.AddRealm(name, net.Root(), nat, phys.MustParseIP("10.0.0.2"))
	}
	h := net.AddHost(name+"-host", site, realm, phys.HostConfig{})
	n := brunet.NewNode(h, brunet.AddrFromString(name), brunet.FastTestConfig())
	if err := n.Start(boot); err != nil {
		return nil, fmt.Errorf("nat-matrix: start %s: %w", name, err)
	}
	return n, nil
}

// runNATPair measures one class pair on a fresh three-node overlay: one
// public relay node plus one node of each class. A three-node ring makes
// every pair ring-adjacent, so the A-B structured-near link MUST form —
// directly if traversal permits, as a tunnel through the relay otherwise.
func runNATPair(seed int64, ca, cb natClass) (NATMatrixCell, error) {
	cell := NATMatrixCell{A: ca.Name, B: cb.Name, WantTunnel: needsTunnel(ca, cb)}
	f, err := newFabric("nat-matrix", seed, 1, 1, 1,
		phys.PathModel{OneWay: sim.Millisecond}, phys.PathModel{OneWay: 15 * sim.Millisecond})
	if err != nil {
		return cell, err
	}
	defer f.close()
	s, net, site := f.timeline(), f.net, f.site(0)

	relay, err := addClassNode(s, net, site, "relay", natClass{Name: "public"}, nil)
	if err != nil {
		return cell, err
	}
	s.RunFor(2 * sim.Second)
	boot := []brunet.URI{relay.BootstrapURI()}
	a, err := addClassNode(s, net, site, "a-"+ca.Name, ca, boot)
	if err != nil {
		return cell, err
	}
	s.RunFor(2 * sim.Second)
	b, err := addClassNode(s, net, site, "b-"+cb.Name, cb, boot)
	if err != nil {
		return cell, err
	}
	s.RunFor(4 * sim.Minute)

	c := a.ConnectionTo(b.Addr())
	cell.Connected = c != nil && c.Has(brunet.StructuredNear)
	cell.Tunneled = c != nil && c.Tunneled()
	got := 0
	a.RegisterProto("m", func(src brunet.Addr, d brunet.AppData) { got++ })
	b.RegisterProto("m", func(src brunet.Addr, d brunet.AppData) { got++ })
	a.SendTo(b.Addr(), brunet.DeliverExact, brunet.AppData{Proto: "m", Size: 32})
	b.SendTo(a.Addr(), brunet.DeliverExact, brunet.AppData{Proto: "m", Size: 32})
	s.RunFor(10 * sim.Second)
	cell.Delivered = got == 2
	return cell, nil
}

// RunNATMatrix measures the 5x5 (unordered, 15-cell) connectivity matrix
// over {public, full-cone, addr-restricted, port-restricted, symmetric}.
func RunNATMatrix(seed int64) (*NATMatrixResult, error) {
	res := &NATMatrixResult{Seed: seed}
	classes := natClasses()
	for i := 0; i < len(classes); i++ {
		for j := i; j < len(classes); j++ {
			cell, err := runNATPair(seed, classes[i], classes[j])
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// SymRingOpts parameterizes the all-symmetric-NAT ring run.
type SymRingOpts struct {
	Seed int64
	// Routers is the public bootstrap router count — the only nodes with
	// unmediated Internet access, and hence the natural tunnel relays.
	Routers int
	// Nodes is the count of bare overlay nodes each behind its own
	// symmetric NAT.
	Nodes int
	// Settle is the convergence time after the last join.
	Settle sim.Duration
	// Pings is the number of end-to-end VIP pings between the two
	// symmetric-NATed workstations (workstation run only).
	Pings int

	// Shards is the engine's shard count (sites round-robin onto shards);
	// 0 or 1 keeps a single event queue. Results are deterministic in
	// (Seed, Shards) and independent of Workers.
	Shards int
	// Workers bounds the goroutines executing shard windows; 0 means
	// min(Shards, GOMAXPROCS). Results never depend on it.
	Workers int
	// BatchJoin>0 (the default, 64, when Shards>1) runs the fleet-scale
	// experiment instead of the workstation one: the fleet joins in
	// batches ramping up to this size, with no VM workstations or
	// migration, and the run ends with overlay probes.
	BatchJoin int
	// WANLatency is the one-way inter-site delay; its floor is the
	// engine lookahead, so it must be positive when Shards>1.
	WANLatency sim.Duration
	// Sites spreads hosts (and so NAT realms) round-robin over this many
	// network sites.
	Sites int
	// Probes is how many end-to-end overlay probes the batched run
	// routes between random NATed pairs.
	Probes int
	// OnProgress, when set, observes every build time-series sample of a
	// batched run.
	OnProgress func(NATPoint)
}

func (o *SymRingOpts) fillDefaults() {
	if o.Nodes == 0 {
		o.Nodes = 200
	}
	if o.Shards > 1 && o.BatchJoin == 0 {
		o.BatchJoin = 64
	}
	if o.Routers == 0 {
		o.Routers = 4
		if o.BatchJoin > 0 {
			// Public relay capacity scales with the fleet: every tunnel
			// edge and every bootstrap dial lands on a router.
			o.Routers = max(4, o.Nodes/50)
		}
	}
	if o.Settle == 0 {
		o.Settle = 6 * sim.Minute
	}
	if o.Pings == 0 {
		o.Pings = 10
	}
	if o.WANLatency == 0 {
		o.WANLatency = 15 * sim.Millisecond
	}
	if o.Sites == 0 {
		o.Sites = max(32, o.Shards)
	}
	if o.BatchJoin > 0 && o.Probes == 0 {
		o.Probes = 200
	}
}

// The symmetric ring's join schedule: the workstation run starts a node
// every symJoinSpacing, the batched run a batch every symBatchInterval.
const (
	symJoinSpacing   = 500 * sim.Millisecond
	symBatchInterval = 10 * sim.Second
)

// SymRingResult summarizes the all-symmetric run. All fields derive from
// the simulation clock and are seed-deterministic.
type SymRingResult struct {
	Seed           int64
	Routers, Nodes int
	// RoutableFrac is the fraction of overlay members that report full
	// structured routability.
	RoutableFrac float64
	// MissingNear counts ring successors with no structured-near link —
	// zero for a consistent ring.
	MissingNear int
	// DirectNear / TunnelNear classify the successor edges.
	DirectNear, TunnelNear int
	// TunnelsEstablished / TunnelsUpgraded / RelaysLost / RelaysReselected
	// are fleet-wide tunnel subsystem counters.
	TunnelsEstablished, TunnelsUpgraded int64
	RelaysLost, RelaysReselected        int64
	// PingOK of PingsSent end-to-end VIP pings between the two
	// symmetric-NATed workstations succeeded.
	PingOK, PingsSent int
	// MigOutageSec is the VIP outage while one workstation migrated to a
	// public host; negative if it never recovered in the window.
	MigOutageSec float64

	// Provenance and cost of the run; BatchJoin and the fields after
	// EventsTotal are zero in workstation runs.
	Shards          int        `json:",omitempty"`
	Workers         int        `json:",omitempty"`
	BatchJoin       int        `json:",omitempty"`
	WANLatencyMs    float64    `json:",omitempty"`
	MaxProcs        int        `json:",omitempty"`
	BuildWallSec    float64    `json:",omitempty"`
	EventsTotal     uint64     `json:",omitempty"`
	UpgradeProbes   int64      `json:",omitempty"`
	ProbesSent      int        `json:",omitempty"`
	ProbesDelivered int        `json:",omitempty"`
	Series          []NATPoint `json:",omitempty"`
}

// String renders the summary. The workstation rendering is golden-pinned
// and must stay byte-identical; batched runs report their own closing lines
// (probe delivery and build cost) instead of the VM workstation figures.
func (r *SymRingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "All-symmetric-NAT ring: %d NATed + %d public routers, seed %d\n",
		r.Nodes, r.Routers, r.Seed)
	batched := r.BatchJoin > 0
	if batched {
		fmt.Fprintf(&b, "  parallel: %d shards x %d workers (GOMAXPROCS %d), join batches of %d, wan %.0f ms\n",
			r.Shards, r.Workers, r.MaxProcs, r.BatchJoin, r.WANLatencyMs)
	}
	fmt.Fprintf(&b, "  routable: %.1f%%; ring: %d missing near links (%d direct, %d tunneled)\n",
		r.RoutableFrac*100, r.MissingNear, r.DirectNear, r.TunnelNear)
	fmt.Fprintf(&b, "  tunnels: %d established, %d upgraded; relays: %d lost, %d reselected\n",
		r.TunnelsEstablished, r.TunnelsUpgraded, r.RelaysLost, r.RelaysReselected)
	if batched {
		fmt.Fprintf(&b, "  probes (sym <-> sym overlay): %d/%d delivered\n", r.ProbesDelivered, r.ProbesSent)
		fmt.Fprintf(&b, "  build: %.1f s wall, %d events\n", r.BuildWallSec, r.EventsTotal)
		return b.String()
	}
	fmt.Fprintf(&b, "  vip ping (sym ws <-> sym ws): %d/%d\n", r.PingOK, r.PingsSent)
	fmt.Fprintf(&b, "  migration to public host: vip outage %.1f s\n", r.MigOutageSec)
	return b.String()
}

// auditRing fills the end-state audit shared by both runs: routability,
// the fleet-wide tunnel counters and the successor-edge classification.
func (r *SymRingResult) auditRing(members []*brunet.Node) {
	r.RoutableFrac = float64(routableCount(members)) / float64(len(members))
	r.TunnelsEstablished = statTotal(members, "tunnel.established")
	r.TunnelsUpgraded = statTotal(members, "tunnel.upgraded")
	r.RelaysLost = statTotal(members, "tunnel.relay_lost")
	r.RelaysReselected = statTotal(members, "tunnel.relay_reselected")
	r.MissingNear, r.DirectNear, r.TunnelNear = ringAudit(members)
}

// natRingConfig is the protocol schedule of the all-symmetric ring:
// FastTestConfig's aggressive link-failure constants (tunnel fallback is
// gated on direct linking failing, and the paper-default ~155s/dead-URI
// schedule would dominate the run), but keepalives and topology ticks
// coarsened for multi-thousand-node event budgets. PingInterval must stay
// under half the 120s NAT mapping TTL: the keepalive traffic is what holds
// every NAT pinhole open, and an expired mapping severs the link.
func natRingConfig() brunet.Config {
	c := brunet.FastTestConfig()
	c.PingInterval = 30 * sim.Second
	c.StatusInterval = 10 * sim.Second
	c.FarInterval = 15 * sim.Second
	c.TunnelUpgradeInterval = 30 * sim.Second
	return c
}

// NATPoint is one sample of the batched build time series: the scale.series
// schema (wall/virtual clocks, joined count, throughput, events) extended
// with the tunnel subsystem's progress — how much of the fleet is routable,
// how many relay-backed tunnel edges exist, and how many upgrade probes the
// tunnels have burned trying to become direct edges (with all-symmetric NATs
// they never succeed; the probe count measures the cost of trying).
type NATPoint struct {
	ScalePoint
	RoutableFrac  float64
	Tunnels       int64
	UpgradeProbes int64
}

// symNATHost places a fresh host on site behind its own symmetric NAT. The
// realm pins to the site, so the NAT's clock is its owning shard's and all
// translation state is only ever touched on that timeline.
func symNATHost(f *fabric, name string, site *phys.Site) *phys.Host {
	nat := natsim.NewNAT(name+"-nat", natsim.Config{Type: natsim.Symmetric},
		f.net.Root().NextIP(), f.eng.Shard(site.Shard()).Now)
	realm := f.net.AddRealm(name, f.net.Root(), nat, phys.MustParseIP("10.0.0.2"))
	return f.net.AddHost(name+"-host", site, realm, phys.HostConfig{})
}

// RunSymmetricRing stands up an overlay whose every member save a handful
// of public routers sits behind its own symmetric NAT — the topology where
// no NATed pair can ever link directly — and verifies the ring still
// assembles over relay-backed tunnel edges through the routers. All hosts,
// NATs and nodes are created up front on the harness fabric; the routers
// start first, bootstrapping off earlier routers, and the NATed fleet then
// joins off the public routers only (a symmetric NAT drops unsolicited
// inbound dials, so only the routers are reachable bootstrap targets).
//
// BatchJoin picks the join plan and what follows it. The workstation run
// (BatchJoin == 0, one shard) staggers the joins, adds two VM workstations
// behind symmetric NATs, pings between them and migrates one to a public
// host. The batched run joins the fleet in batches, possibly over several
// shards, and routes overlay probes between random NATed pairs.
func RunSymmetricRing(opts SymRingOpts) (*SymRingResult, error) {
	opts.fillDefaults()
	f, err := newFabric("sym-ring", opts.Seed, opts.Shards, opts.Workers, opts.Sites,
		phys.PathModel{OneWay: sim.Millisecond}, phys.PathModel{OneWay: opts.WANLatency})
	if err != nil {
		return nil, err
	}
	defer f.close()

	cfg := natRingConfig()
	members := make([]*brunet.Node, 0, opts.Routers+opts.Nodes)
	for i := 0; i < opts.Routers; i++ {
		name := fmt.Sprintf("pub%03d", i)
		h := f.net.AddHost(name, f.site(i), f.net.Root(), phys.HostConfig{})
		members = append(members, brunet.NewNode(h, brunet.AddrFromString(name), cfg))
	}
	for i := 0; i < opts.Nodes; i++ {
		name := fmt.Sprintf("sym%05d", i)
		h := symNATHost(f, name, f.site(i))
		members = append(members, brunet.NewNode(h, brunet.AddrFromString(name), cfg))
	}
	for _, n := range members {
		n.RegisterProto("nat", func(brunet.Addr, brunet.AppData) {})
	}

	var plan joinPlan
	if opts.BatchJoin > 0 {
		plan.staggered(opts.Routers, 250*sim.Millisecond, opts.Routers, scaleOffsets)
		plan.end = plan.end.Add(symBatchInterval)
		plan.batched(opts.Nodes, opts.BatchJoin, symBatchInterval, opts.Routers)
		plan.settle(opts.Settle)
	} else {
		plan.staggered(opts.Routers, sim.Second, opts.Routers, scaleOffsets)
		plan.staggered(opts.Nodes, symJoinSpacing, opts.Routers, scaleOffsets)
	}

	res := &SymRingResult{
		Seed:         opts.Seed,
		Routers:      opts.Routers,
		Nodes:        opts.Nodes,
		Shards:       f.eng.Shards(),
		Workers:      f.eng.Workers(),
		BatchJoin:    opts.BatchJoin,
		WANLatencyMs: float64(opts.WANLatency) / float64(sim.Millisecond),
		MaxProcs:     runtime.GOMAXPROCS(0),
	}
	t0 := time.Now()
	err = f.join(members, plan, func(sp ScalePoint) {
		p := NATPoint{
			ScalePoint:    sp,
			RoutableFrac:  float64(routableCount(members)) / float64(opts.Routers+sp.Joined),
			Tunnels:       statTotal(members, "tunnel.established"),
			UpgradeProbes: statTotal(members, "tunnel.upgrade_probes"),
		}
		res.Series = append(res.Series, p)
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	})
	if err != nil {
		return nil, err
	}
	res.BuildWallSec = time.Since(t0).Seconds()
	if opts.BatchJoin > 0 {
		res.auditRing(members)
		res.UpgradeProbes = statTotal(members, "tunnel.upgrade_probes")
		// End-to-end probes between random NATed pairs, delivered through
		// relay-backed tunnel routes.
		res.ProbesSent = opts.Probes
		del0 := statTotal(members, "route.delivered")
		f.runUntil(f.scheduleProbes(members[opts.Routers:], "nat", opts.Probes, 10*sim.Second))
		res.ProbesDelivered = int(statTotal(members, "route.delivered") - del0)
	} else if err := symWorkstations(f, opts, cfg, members, res); err != nil {
		return nil, err
	}
	res.EventsTotal = f.processed()
	return res, nil
}

// symWorkstations finishes the workstation run on its one shard: two VM
// workstations join behind symmetric NATs, the overlay settles and is
// audited with them, ws1 pings ws0, and ws0 migrates to a public host while
// ws1 measures the VIP outage.
func symWorkstations(f *fabric, opts SymRingOpts, cfg brunet.Config, members []*brunet.Node, res *SymRingResult) error {
	s := f.timeline()
	ws := make([]*vm.VM, 2)
	for i := range ws {
		// A workstation bootstraps off the routers as the next fleet
		// member would.
		var boot []brunet.URI
		for _, b := range bootPicks(len(members), opts.Routers, scaleOffsets) {
			boot = append(boot, members[b].BootstrapURI())
		}
		name := fmt.Sprintf("ws%d", i)
		ws[i] = vm.New(symNATHost(f, name, f.site(i)), mustVIP(fmt.Sprintf("172.16.1.%d", i+2)), vm.Spec{Name: name}, cfg)
		if err := ws[i].Start(boot); err != nil {
			return fmt.Errorf("sym-ring: workstation %s: %w", name, err)
		}
		members = append(members, ws[i].Node().Overlay())
		s.RunFor(symJoinSpacing)
	}
	s.RunFor(opts.Settle)
	res.auditRing(members)

	// End-to-end VIP pings between the symmetric-NATed workstations.
	res.PingsSent = opts.Pings
	for i := 0; i < opts.Pings; i++ {
		if pingOK(s, ws[1], ws[0].IP()) {
			res.PingOK++
		}
	}

	// Migrate ws0 to a public host and measure the VIP outage.
	dst := f.net.AddHost("mig-dst", f.site(0), f.net.Root(), phys.HostConfig{})
	start := s.Now()
	if err := ws[0].Migrate(dst, vm.MigrationConfig{TransferBps: 32 << 20, Graceful: true}, nil); err != nil {
		return fmt.Errorf("sym-ring: migrate: %w", err)
	}
	res.MigOutageSec = -1
	for s.Now().Sub(start) < 5*sim.Minute {
		ok := false
		ws[1].Stack().Ping(ws[0].IP(), 64, sim.Second, func(o bool, _ sim.Duration) { ok = o })
		s.RunFor(1200 * sim.Millisecond)
		if ok {
			res.MigOutageSec = s.Now().Sub(start).Seconds()
			break
		}
	}
	return nil
}
