package brunet

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
)

// overlayRig builds small overlays on a simulated public Internet.
type overlayRig struct {
	s     *sim.Simulator
	net   *phys.Network
	site  *phys.Site
	nodes []*Node
}

func newOverlayRig(seed int64) *overlayRig {
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 15 * sim.Millisecond},
	))
	return &overlayRig{s: s, net: net, site: net.AddSite("pub")}
}

// addPublic creates and starts a node on a fresh public host, bootstrapping
// off the first node.
func (r *overlayRig) addPublic(t *testing.T, name string, cfg Config) *Node {
	t.Helper()
	h := r.net.AddHost(name, r.site, r.net.Root(), phys.HostConfig{})
	n := NewNode(h, AddrFromString(name), cfg)
	var boot []URI
	if len(r.nodes) > 0 {
		boot = []URI{r.nodes[0].BootstrapURI()}
	}
	if err := n.Start(boot); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	r.nodes = append(r.nodes, n)
	return n
}

// buildRing starts n public nodes and lets the overlay converge.
func buildRing(t *testing.T, seed int64, n int) *overlayRig {
	t.Helper()
	r := newOverlayRig(seed)
	cfg := FastTestConfig()
	for i := 0; i < n; i++ {
		r.addPublic(t, fmt.Sprintf("node%03d", i), cfg)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(60 * sim.Second)
	return r
}

// ringNeighbors returns the sorted ring order of the rig's running nodes.
func (r *overlayRig) ringOrder() []*Node {
	live := make([]*Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n.Up() {
			live = append(live, n)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Addr().Less(live[j].Addr()) })
	return live
}

// assertRingConsistent checks every node is linked to its true successor.
func assertRingConsistent(t *testing.T, r *overlayRig) {
	t.Helper()
	order := r.ringOrder()
	for i, n := range order {
		succ := order[(i+1)%len(order)]
		if n == succ {
			continue
		}
		c := n.ConnectionTo(succ.Addr())
		if c == nil || !c.Has(StructuredNear) {
			t.Errorf("node %s missing near link to successor %s", n.Addr(), succ.Addr())
		}
	}
}

func TestSingleNodeFoundsRing(t *testing.T) {
	r := newOverlayRig(1)
	n := r.addPublic(t, "alone", FastTestConfig())
	r.s.RunFor(10 * sim.Second)
	if !n.IsRoutable() {
		t.Fatal("ring founder not routable")
	}
	if n.String() == "" {
		t.Fatal("String empty")
	}
}

func TestDoubleStartFails(t *testing.T) {
	r := newOverlayRig(1)
	n := r.addPublic(t, "a", FastTestConfig())
	if err := n.Start(nil); err == nil {
		t.Fatal("second Start succeeded")
	}
}

func TestTwoNodeRing(t *testing.T) {
	r := buildRing(t, 1, 2)
	for _, n := range r.nodes {
		if !n.IsRoutable() {
			t.Fatalf("node %s not routable", n.Addr())
		}
	}
	if r.nodes[1].ConnectionTo(r.nodes[0].Addr()) == nil {
		t.Fatal("joiner not connected to founder")
	}
}

func TestRingFormation(t *testing.T) {
	r := buildRing(t, 2, 16)
	for _, n := range r.nodes {
		if !n.IsRoutable() {
			t.Fatalf("node %s not routable", n.Addr())
		}
	}
	assertRingConsistent(t, r)
}

func TestAllPairsRouting(t *testing.T) {
	r := buildRing(t, 3, 12)
	got := make(map[Addr]map[Addr]bool)
	for _, n := range r.nodes {
		n := n
		got[n.Addr()] = make(map[Addr]bool)
		n.RegisterProto("test", func(src Addr, d AppData) {
			got[n.Addr()][src] = true
		})
	}
	for _, a := range r.nodes {
		for _, b := range r.nodes {
			if a == b {
				continue
			}
			a.SendTo(b.Addr(), DeliverExact, AppData{Proto: "test", Size: 100})
		}
	}
	r.s.RunFor(10 * sim.Second)
	for _, a := range r.nodes {
		for _, b := range r.nodes {
			if a == b {
				continue
			}
			if !got[b.Addr()][a.Addr()] {
				t.Errorf("packet %s -> %s not delivered", a.Addr(), b.Addr())
			}
		}
	}
}

// Registering a label again replaces its handler and adds no entry; a
// packet whose label has no handler reaches none and counts recv.noproto
// exactly once.
func TestRegisterProtoReplacesAndCountsNoProto(t *testing.T) {
	r := buildRing(t, 4, 8)
	src, dst := r.nodes[1], r.nodes[6]
	var first, second, other int
	dst.RegisterProto("t", func(Addr, AppData) { first++ })
	dst.RegisterProto("u", func(Addr, AppData) { other++ })
	dst.RegisterProto("t", func(Addr, AppData) { second++ })
	if len(dst.handlers) != 2 {
		t.Fatalf("two labels, %d handler entries", len(dst.handlers))
	}
	send := func(proto string) {
		src.SendTo(dst.Addr(), DeliverExact, AppData{Proto: proto, Size: 10})
		r.s.RunFor(5 * sim.Second)
	}
	send("t")
	if first != 0 || second != 1 || other != 0 {
		t.Fatalf("after re-registering \"t\": the first handler ran %d times, its replacement %d, \"u\"'s %d; want 0, 1, 0",
			first, second, other)
	}
	noproto, delivered := dst.Stats.Get("recv.noproto"), dst.Stats.Get("route.delivered")
	send("v")
	if got := dst.Stats.Get("recv.noproto") - noproto; got != 1 || dst.Stats.Get("route.delivered") != delivered+1 {
		t.Fatalf("a packet for an unregistered label: recv.noproto +%d, route.delivered +%d; want +1 each",
			got, dst.Stats.Get("route.delivered")-delivered)
	}
	if first != 0 || second != 1 || other != 0 {
		t.Fatalf("a packet for an unregistered label ran a handler: %d, %d, %d", first, second, other)
	}
}

func TestExactModeDeadLetters(t *testing.T) {
	r := buildRing(t, 4, 8)
	ghost := AddrFromString("no-such-node")
	delivered := false
	for _, n := range r.nodes {
		n.RegisterProto("test", func(src Addr, d AppData) { delivered = true })
	}
	r.nodes[0].SendTo(ghost, DeliverExact, AppData{Proto: "test", Size: 10})
	r.s.RunFor(5 * sim.Second)
	if delivered {
		t.Fatal("exact-mode packet delivered to non-owner")
	}
}

func TestNearestModeDeliversToClosest(t *testing.T) {
	r := buildRing(t, 5, 8)
	ghost := AddrFromString("some-ghost-address")
	var deliveredTo Addr
	for _, n := range r.nodes {
		n := n
		n.RegisterProto("test", func(src Addr, d AppData) { deliveredTo = n.Addr() })
	}
	r.nodes[0].SendTo(ghost, DeliverNearest, AppData{Proto: "test", Size: 10})
	r.s.RunFor(5 * sim.Second)
	if deliveredTo.IsZero() {
		t.Fatal("nearest-mode packet lost")
	}
	// The recipient must be the live node nearest to ghost.
	var want Addr
	var bestDist Addr
	for i, n := range r.nodes {
		d := n.Addr().RingDist(ghost)
		if i == 0 || d.Cmp(bestDist) < 0 {
			want, bestDist = n.Addr(), d
		}
	}
	if deliveredTo != want {
		t.Fatalf("delivered to %s, want nearest %s", deliveredTo, want)
	}
}

func TestFarConnectionsForm(t *testing.T) {
	r := buildRing(t, 6, 24)
	r.s.RunFor(120 * sim.Second)
	total := 0
	for _, n := range r.nodes {
		total += n.roleCount[StructuredFar]
	}
	if total < len(r.nodes) {
		t.Fatalf("far connections too sparse: %d across %d nodes", total, len(r.nodes))
	}
}

func TestFarConnectionsReduceHops(t *testing.T) {
	cfgNoFar := FastTestConfig()
	cfgNoFar.FarCount = -1 // fillDefaults only patches zero; -1 disables
	r1 := newOverlayRig(7)
	for i := 0; i < 24; i++ {
		r1.addPublic(t, fmt.Sprintf("n%03d", i), cfgNoFar)
		r1.s.RunFor(2 * sim.Second)
	}
	r1.s.RunFor(120 * sim.Second)

	r2 := buildRing(t, 7, 24)
	r2.s.RunFor(60 * sim.Second)

	hops := func(r *overlayRig) float64 {
		var sent, forwarded int64
		for _, n := range r.nodes {
			n.Stats.Inc("route.forwarded", 0)
		}
		before := make([]int64, len(r.nodes))
		for i, n := range r.nodes {
			before[i] = n.Stats.Get("route.forwarded")
		}
		for _, a := range r.nodes {
			for _, b := range r.nodes {
				if a != b {
					a.SendTo(b.Addr(), DeliverExact, AppData{Proto: "x", Size: 10})
					sent++
				}
			}
		}
		r.s.RunFor(30 * sim.Second)
		for i, n := range r.nodes {
			forwarded += n.Stats.Get("route.forwarded") - before[i]
		}
		return float64(forwarded) / float64(sent)
	}
	h1, h2 := hops(r1), hops(r2)
	if h2 >= h1 {
		t.Fatalf("far connections did not reduce hops: without=%.2f with=%.2f", h1, h2)
	}
}

func TestShortcutFormsUnderTraffic(t *testing.T) {
	r := buildRing(t, 8, 16)
	a, b := r.nodes[2], r.nodes[11]
	for _, n := range []*Node{a, b} {
		n.RegisterProto("ipop", func(src Addr, d AppData) {})
	}
	if c := a.ConnectionTo(b.Addr()); c != nil && c.structured() {
		t.Skip("nodes already adjacent; pick different pair")
	}
	// 1 packet/second of traffic, as in the paper's ICMP experiment.
	tk := r.s.Tick(sim.Second, 0, func() {
		a.SendTo(b.Addr(), DeliverExact, AppData{Proto: "ipop", Size: 100})
	})
	defer tk.Stop()
	r.s.RunFor(120 * sim.Second)
	c := a.ConnectionTo(b.Addr())
	if c == nil || !c.Has(Shortcut) {
		t.Fatalf("shortcut did not form; score=%v stats=%v", a.sco.score(b.Addr()), a.Stats.String())
	}
}

func TestShortcutIdleDrop(t *testing.T) {
	cfg := FastTestConfig()
	cfg.Shortcut = &ShortcutConfig{Threshold: 5}
	r := newOverlayRig(9)
	for i := 0; i < 12; i++ {
		r.addPublic(t, fmt.Sprintf("n%03d", i), cfg)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(60 * sim.Second)
	a, b := r.nodes[1], r.nodes[8]
	b.RegisterProto("ipop", func(src Addr, d AppData) {})
	tk := r.s.Tick(sim.Second, 0, func() {
		a.SendTo(b.Addr(), DeliverExact, AppData{Proto: "ipop", Size: 100})
	})
	r.s.RunFor(60 * sim.Second)
	c := a.ConnectionTo(b.Addr())
	if c == nil || !c.Has(Shortcut) {
		t.Fatal("shortcut did not form")
	}
	tk.Stop()
	// A minute of 1 packet/s leaves a score near 45: it drains at
	// shortcutServiceRate in three minutes, then idles out after
	// shortcutIdleDrop.
	r.s.RunFor(6 * sim.Minute)
	if c := a.ConnectionTo(b.Addr()); c != nil && c.Has(Shortcut) {
		t.Fatal("idle shortcut not dropped")
	}
	// Whichever side's overlord ticks first tears the shortcut down.
	if a.Stats.Get("shortcut.idle_dropped")+b.Stats.Get("shortcut.idle_dropped") == 0 {
		t.Fatal("idle drop not counted on either side")
	}
}

func TestShortcutsDisabled(t *testing.T) {
	cfg := FastTestConfig()
	cfg.Shortcut = nil
	r := newOverlayRig(10)
	for i := 0; i < 12; i++ {
		r.addPublic(t, fmt.Sprintf("n%03d", i), cfg)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(30 * sim.Second)
	a, b := r.nodes[1], r.nodes[8]
	b.RegisterProto("ipop", func(src Addr, d AppData) {})
	r.s.Tick(sim.Second, 0, func() {
		a.SendTo(b.Addr(), DeliverExact, AppData{Proto: "ipop", Size: 100})
	})
	r.s.RunFor(120 * sim.Second)
	if c := a.ConnectionTo(b.Addr()); c != nil && c.Has(Shortcut) {
		t.Fatal("shortcut formed with overlord disabled")
	}
}

func TestGracefulLeaveRepairsRing(t *testing.T) {
	r := buildRing(t, 11, 10)
	victim := r.nodes[4]
	victim.Leave()
	r.s.RunFor(60 * sim.Second)
	assertRingConsistent(t, r)
}

func TestCrashDetectedByPings(t *testing.T) {
	r := buildRing(t, 12, 10)
	victim := r.nodes[4]
	peers := victim.Connections()
	if len(peers) == 0 {
		t.Fatal("victim had no connections")
	}
	victim.Stop() // ungraceful: no close messages
	r.s.RunFor(5 * sim.Minute)
	for _, n := range r.nodes {
		if n == victim {
			continue
		}
		if c := n.ConnectionTo(victim.Addr()); c != nil {
			t.Fatalf("node %s still holds connection to crashed %s", n.Addr(), victim.Addr())
		}
	}
	assertRingConsistent(t, r)
}

func TestRestartSameAddressRejoins(t *testing.T) {
	r := buildRing(t, 13, 10)
	victim := r.nodes[4]
	addr := victim.Addr()
	victim.Stop()
	r.s.RunFor(sim.Minute)

	// Restart on a new host (as after VM migration) with the same
	// overlay address.
	h := r.net.AddHost("migrated", r.site, r.net.Root(), phys.HostConfig{})
	reborn := NewNode(h, addr, FastTestConfig())
	if err := reborn.Start([]URI{r.nodes[0].BootstrapURI()}); err != nil {
		t.Fatal(err)
	}
	r.nodes[4] = reborn
	r.s.RunFor(5 * sim.Minute)
	if !reborn.IsRoutable() {
		t.Fatal("restarted node never became routable")
	}
	assertRingConsistent(t, r)
}

func TestJoinThroughNAT(t *testing.T) {
	r := buildRing(t, 14, 6)
	nat := natsim.NewNAT("homenat", natsim.Config{Type: natsim.PortRestricted}, r.net.Root().NextIP(), r.s.Now)
	realm := r.net.AddRealm("home", r.net.Root(), nat, phys.MustParseIP("192.168.0.2"))
	h := r.net.AddHost("natted", r.site, realm, phys.HostConfig{})
	n := NewNode(h, AddrFromString("natted-node"), FastTestConfig())
	if err := n.Start([]URI{r.nodes[0].BootstrapURI()}); err != nil {
		t.Fatal(err)
	}
	r.nodes = append(r.nodes, n)
	r.s.RunFor(2 * sim.Minute)
	if !n.IsRoutable() {
		t.Fatal("NATed node never became routable")
	}
	// It must have learned its NAT-assigned public URI.
	uris := n.URIs()
	if len(uris) < 2 {
		t.Fatalf("no learned URIs: %v", uris)
	}
	if uris[0].EP.IP != nat.PublicIP() {
		t.Fatalf("first URI %v is not the NAT public endpoint", uris[0])
	}
	// And traffic reaches it.
	got := false
	n.RegisterProto("t", func(src Addr, d AppData) { got = true })
	r.nodes[2].SendTo(n.Addr(), DeliverExact, AppData{Proto: "t", Size: 10})
	r.s.RunFor(10 * sim.Second)
	if !got {
		t.Fatal("packet to NATed node lost")
	}
}

func TestShortcutAcrossTwoNATs(t *testing.T) {
	r := buildRing(t, 15, 8)
	mk := func(name, base string) *Node {
		nat := natsim.NewNAT(name, natsim.Config{Type: natsim.PortRestricted}, r.net.Root().NextIP(), r.s.Now)
		realm := r.net.AddRealm(name, r.net.Root(), nat, phys.MustParseIP(base))
		h := r.net.AddHost(name+"-host", r.site, realm, phys.HostConfig{})
		cfg := FastTestConfig()
		cfg.FarCount = 2 // stay sparse so the pair is not already linked
		n := NewNode(h, AddrFromString(name), cfg)
		if err := n.Start([]URI{r.nodes[0].BootstrapURI()}); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, n)
		return n
	}
	a := mk("nat-a", "10.0.0.2")
	b := mk("nat-b", "10.1.0.2")
	r.s.RunFor(2 * sim.Minute)
	if !a.IsRoutable() || !b.IsRoutable() {
		t.Fatal("NATed nodes not routable")
	}
	b.RegisterProto("ipop", func(src Addr, d AppData) {})
	a.RegisterProto("ipop", func(src Addr, d AppData) {})
	r.s.Tick(sim.Second, 0, func() {
		a.SendTo(b.Addr(), DeliverExact, AppData{Proto: "ipop", Size: 100})
	})
	r.s.RunFor(4 * sim.Minute)
	c := a.ConnectionTo(b.Addr())
	if c == nil || !c.Has(Shortcut) {
		t.Fatalf("hole-punched shortcut did not form (conn=%v)", c)
	}
	// The shortcut must use public (hole-punched) endpoints, not
	// unroutable private ones.
	if c.EP.IP == b.Host().IP() {
		t.Fatalf("shortcut endpoint %v is the private address", c.EP)
	}
}

func TestLinkRaceSingleWinner(t *testing.T) {
	// Force many simultaneous CTM-driven links; the tie-break must never
	// produce duplicate or missing connections.
	r := buildRing(t, 16, 12)
	for i := 0; i < len(r.nodes); i++ {
		for j := i + 1; j < len(r.nodes); j++ {
			a, b := r.nodes[i], r.nodes[j]
			a.sendCTM(b.Addr(), Shortcut, DeliverExact, Zero)
			b.sendCTM(a.Addr(), Shortcut, DeliverExact, Zero)
		}
	}
	r.s.RunFor(2 * sim.Minute)
	for i := 0; i < len(r.nodes); i++ {
		for j := i + 1; j < len(r.nodes); j++ {
			a, b := r.nodes[i], r.nodes[j]
			ca, cb := a.ConnectionTo(b.Addr()), b.ConnectionTo(a.Addr())
			if ca == nil || cb == nil {
				t.Fatalf("race left %s<->%s unconnected", a.Addr(), b.Addr())
			}
		}
	}
}

func TestURITrialOrderPrivateFirst(t *testing.T) {
	r := newOverlayRig(17)
	cfg := FastTestConfig()
	cfg.PrivateFirst = true
	n := r.addPublic(t, "pf", cfg)
	n.learnURI(UDPURI(phys.Endpoint{IP: phys.MustParseIP("9.9.9.9"), Port: 7}))
	uris := n.URIs()
	if uris[0] != n.private {
		t.Fatalf("private not first: %v", uris)
	}
	cfg2 := FastTestConfig()
	n2 := NewNode(r.net.AddHost("h2", r.site, r.net.Root(), phys.HostConfig{}), AddrFromString("pub-first"), cfg2)
	if err := n2.Start(nil); err != nil {
		t.Fatal(err)
	}
	n2.learnURI(UDPURI(phys.Endpoint{IP: phys.MustParseIP("9.9.9.8"), Port: 7}))
	uris2 := n2.URIs()
	// Order: learned public URIs, private, then the alternate-transport
	// variant of the private endpoint.
	if uris2[len(uris2)-2] != n2.private {
		t.Fatalf("private not after learned URIs: %v", uris2)
	}
	if alt := uris2[len(uris2)-1]; alt.Transport != "tcp" || alt.EP != n2.private.EP {
		t.Fatalf("alternate-transport variant not last: %v", uris2)
	}
}

// TestNodeURIsCopyOnWrite pins the advertised list's sharing rule: calls
// between changes return the same slice without allocating, and a change
// (a learned URI, eviction from the full learned set, Stop, a restart that
// rebinds the private endpoint) yields a new array and leaves every list
// handed out earlier exactly as it was — peers hold those.
func TestNodeURIsCopyOnWrite(t *testing.T) {
	r := newOverlayRig(19)
	n := r.addPublic(t, "cow", FastTestConfig())
	pub := func(port int) URI {
		return UDPURI(phys.Endpoint{IP: phys.MustParseIP("9.9.9.9"), Port: uint16(port)})
	}
	want := func(learned ...URI) []URI {
		alt := n.private
		alt.Transport = "tcp"
		return append(append(learned, n.private), alt)
	}

	first := n.URIs()
	if !slices.Equal(first, want()) {
		t.Fatalf("fresh node advertises %v", first)
	}
	if again := n.URIs(); &again[0] != &first[0] {
		t.Fatal("unchanged node rebuilt its URI list")
	}
	if avg := testing.AllocsPerRun(100, func() { n.URIs() }); avg != 0 && !raceEnabled {
		t.Errorf("cached URIs() allocates %.1f", avg)
	}
	if n.learnURI(n.private) || &n.URIs()[0] != &first[0] {
		t.Fatal("a rejected observation invalidated the list")
	}

	// Fill the learned set past its cap; keep every list handed out and
	// what it held at the time.
	type held struct{ got, snapshot []URI }
	holds := []held{{first, slices.Clone(first)}}
	var learned []URI
	for port := 1; port <= maxLearnedURIs+2; port++ {
		if !n.learnURI(pub(port)) {
			t.Fatalf("port %d not learned", port)
		}
		learned = append(learned, pub(port))
		if len(learned) > maxLearnedURIs {
			learned = learned[1:]
		}
		got := n.URIs()
		if !slices.Equal(got, want(slices.Clone(learned)...)) {
			t.Fatalf("after learning port %d: %v", port, got)
		}
		holds = append(holds, held{got, slices.Clone(got)})
	}

	n.Stop()
	holds = append(holds, held{n.URIs(), slices.Clone(n.URIs())})
	if len(n.URIs()) != 2 {
		t.Fatalf("stopped node still advertises learned URIs: %v", n.URIs())
	}
	if err := n.Start(nil); err != nil {
		t.Fatal(err)
	}
	if got := n.URIs(); !slices.Equal(got, want()) {
		t.Fatalf("restarted node advertises %v, private is %v", got, n.private)
	}
	for i, h := range holds {
		if !slices.Equal(h.got, h.snapshot) {
			t.Errorf("list %d handed out earlier was rewritten: %v, was %v", i, h.got, h.snapshot)
		}
	}
}

// BenchmarkNodeURIs times reading the advertised list, as every CTM, CTM
// reply, link request and link reply does.
func BenchmarkNodeURIs(b *testing.B) {
	r := newOverlayRig(19)
	n := NewNode(r.net.AddHost("h", r.site, r.net.Root(), phys.HostConfig{}), AddrFromString("bench"), FastTestConfig())
	if err := n.Start(nil); err != nil {
		b.Fatal(err)
	}
	n.learnURI(UDPURI(phys.Endpoint{IP: phys.MustParseIP("9.9.9.9"), Port: 7}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkURIs = n.URIs()
	}
}

var sinkURIs []URI

func TestStoppedNodeIgnoresTraffic(t *testing.T) {
	r := buildRing(t, 18, 4)
	n := r.nodes[3]
	n.Stop()
	n.Stop() // idempotent
	if n.Up() {
		t.Fatal("Up after Stop")
	}
	n.SendTo(r.nodes[0].Addr(), DeliverExact, AppData{Proto: "x", Size: 1})
	r.s.RunFor(sim.Second)
	if n.IsRoutable() {
		t.Fatal("stopped node routable")
	}
}

// TestMaxHopsBounds starts every packet one hop short of maxHops, so each
// one that needs a second hop trips the bound.
func TestMaxHopsBounds(t *testing.T) {
	cfg := FastTestConfig()
	r := newOverlayRig(19)
	for i := 0; i < 10; i++ {
		r.addPublic(t, fmt.Sprintf("n%03d", i), cfg)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(30 * sim.Second)
	exceeded := int64(0)
	for _, a := range r.nodes {
		for _, b := range r.nodes {
			if a != b {
				pkt := a.pool.pkts.Get()
				pkt.Src, pkt.Dst, pkt.Mode, pkt.Hops = a.addr, b.addr, DeliverExact, maxHops-1
				pkt.app = AppData{Proto: "x", Size: 1}
				pkt.Payload, pkt.Size = &pkt.app, overlayHdrSize+1
				a.routePacket(pkt, a.addr)
			}
		}
	}
	r.s.RunFor(10 * sim.Second)
	for _, n := range r.nodes {
		exceeded += n.Stats.Get("route.hops_exceeded")
	}
	if exceeded == 0 {
		t.Fatal("a packet one hop short of maxHops never tripped the bound on a 10-node ring")
	}
}

func TestConnectionStringAndTypes(t *testing.T) {
	r := buildRing(t, 20, 3)
	conns := r.nodes[0].Connections()
	if len(conns) == 0 {
		t.Fatal("no connections")
	}
	c := conns[0]
	if c.String() == "" || len(c.Types()) == 0 {
		t.Fatal("diagnostics empty")
	}
}

func TestDefaultConfigMatchesPaperTimings(t *testing.T) {
	c := DefaultConfig()
	// Per-URI giveup time: LinkResend * (2^(LinkRetries+1) - 1).
	total := sim.Duration(0)
	wait := c.LinkResend
	for i := 0; i <= c.LinkRetries; i++ {
		total += wait
		wait = sim.Duration(float64(wait) * linkBackoff)
	}
	if total < 120*sim.Second || total > 200*sim.Second {
		t.Fatalf("per-URI giveup %v, paper reports ~150s", total)
	}
}
