package experiments

import (
	"fmt"
	"strings"

	"wow/internal/brunet"
	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/vm"
)

// This file holds the NAT-traversal experiments for the tunnel-edge
// subsystem: a pairwise connectivity matrix over the middlebox taxonomy
// (which pairs can link directly, which require relay-backed tunnel
// edges), and an all-symmetric-NAT ring formation plus VM migration run —
// the worst-case deployment the paper's §IV-C traversal machinery cannot
// serve without relays.
//
// Both experiments run on brunet.FastTestConfig constants: tunnel
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
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 15 * sim.Millisecond},
	))
	site := net.AddSite("pub")

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
	// Nodes is the count of overlay routers each behind its own
	// symmetric NAT.
	Nodes int
	// Settle is the convergence time after the last join.
	Settle sim.Duration
	// Pings is the number of end-to-end VIP pings between the two
	// symmetric-NATed workstations (workstation run only).
	Pings int

	// BatchJoin>0 (the default when Shards>1) runs the fleet-scale
	// experiment instead of the workstation one: bare brunet nodes (no VM
	// workstations or migration) on the harness fabric, every NAT realm
	// pinned to its host's site, joins batched off the public routers
	// only — a symmetric NAT admits no unsolicited inbound, so NATed
	// peers are useless as bootstrap targets. Results are deterministic
	// in (Seed, Shards) and independent of Workers. The workstation run
	// (BatchJoin=0) is golden-pinned and untouched by the fields below.
	Shards int
	// Workers bounds the goroutines executing shard windows; 0 means
	// min(Shards, GOMAXPROCS). Results never depend on it.
	Workers int
	// BatchJoin is the batched-bootstrap ramp cap; defaults to 64 when
	// Shards>1.
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
	if o.BatchJoin > 0 {
		if o.WANLatency == 0 {
			o.WANLatency = 15 * sim.Millisecond
		}
		if o.Sites == 0 {
			o.Sites = max(32, o.Shards)
		}
		if o.Probes == 0 {
			o.Probes = 200
		}
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

	// Batched-run fields (zero in workstation runs).
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

// RunSymmetricRing stands up an overlay whose every member save a handful
// of public routers sits behind its own symmetric NAT — the topology
// where no NATed pair can ever link directly — and verifies the ring
// still assembles (over tunnel edges through the public routers), routes
// VIP traffic end to end, and survives a workstation migration.
func RunSymmetricRing(opts SymRingOpts) (*SymRingResult, error) {
	opts.fillDefaults()
	if opts.BatchJoin > 0 {
		return runSymmetricRingBatched(opts)
	}
	s := sim.New(opts.Seed)
	net := phys.NewNetwork(s, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 15 * sim.Millisecond},
	))
	sites := make([]*phys.Site, 8)
	for i := range sites {
		sites[i] = net.AddSite(fmt.Sprintf("site%d", i))
	}
	w := testbed.NewWOW(testbed.Options{Shortcuts: true, Brunet: brunet.FastTestConfig()})

	for i := 0; i < opts.Routers; i++ {
		name := fmt.Sprintf("pub%02d", i)
		h := net.AddHost(name, sites[i%len(sites)], net.Root(), phys.HostConfig{})
		if _, err := w.AddRouter(h, name); err != nil {
			return nil, fmt.Errorf("sym-ring: %w", err)
		}
		s.RunFor(sim.Second)
	}

	// symHost places a fresh host behind its own symmetric NAT.
	symHost := func(name string, site *phys.Site) *phys.Host {
		nat := natsim.NewNAT(name+"-nat", natsim.Config{Type: natsim.Symmetric},
			net.Root().NextIP(), s.Now)
		realm := net.AddRealm(name, net.Root(), nat, phys.MustParseIP("10.0.0.2"))
		return net.AddHost(name+"-host", site, realm, phys.HostConfig{})
	}

	for i := 0; i < opts.Nodes; i++ {
		name := fmt.Sprintf("sym%03d", i)
		if _, err := w.AddRouter(symHost(name, sites[i%len(sites)]), name); err != nil {
			return nil, fmt.Errorf("sym-ring: %w", err)
		}
		s.RunFor(symJoinSpacing)
	}

	// Two virtual workstations, also behind symmetric NATs.
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ws%d", i)
		if _, err := w.AddWorkstation(symHost(name, sites[i]),
			mustVIP(fmt.Sprintf("172.16.1.%d", i+2)), vm.Spec{Name: name}); err != nil {
			return nil, fmt.Errorf("sym-ring: %w", err)
		}
		s.RunFor(symJoinSpacing)
	}
	s.RunFor(opts.Settle)
	ws := w.Workstations()

	res := &SymRingResult{Seed: opts.Seed, Routers: opts.Routers, Nodes: opts.Nodes}

	// Collect every overlay member and audit the ring.
	var members []*brunet.Node
	for _, r := range w.Routers() {
		members = append(members, r.Overlay())
	}
	for _, v := range ws {
		members = append(members, v.Node().Overlay())
	}
	res.auditRing(members)

	// End-to-end VIP pings between the symmetric-NATed workstations.
	res.PingsSent = opts.Pings
	for i := 0; i < opts.Pings; i++ {
		if pingOK(s, ws[1], ws[0].IP()) {
			res.PingOK++
		}
	}

	// Migrate ws0 to a public host and measure the VIP outage.
	dst := net.AddHost("mig-dst", sites[0], net.Root(), phys.HostConfig{})
	start := s.Now()
	if err := ws[0].Migrate(dst, vm.MigrationConfig{TransferBps: 32 << 20, Graceful: true}, nil); err != nil {
		return nil, fmt.Errorf("sym-ring: migrate: %w", err)
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
	return res, nil
}
