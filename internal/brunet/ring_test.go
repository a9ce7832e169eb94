package brunet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/trace"
)

// ringTestNode builds a bare node (never started) whose connection table
// can be churned directly — the unit under test is the table's ring reads'
// agreement with the linear-scan oracles, not the linking protocol.
func ringTestNode(seed int64) *Node { return ringTestNodeAt(seed, AddrFromString("ring-test-origin")) }

// ringTestNodeAt is ringTestNode at a chosen address.
func ringTestNodeAt(seed int64, addr Addr) *Node {
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	site := net.AddSite("t")
	h := net.AddHost("t0", site, net.Root(), phys.HostConfig{})
	return NewNode(h, addr, Config{})
}

// churnTypes lists the ring-routing roles first: the first three are
// structured, the last two are not.
var churnTypes = []ConnType{StructuredNear, StructuredFar, Shortcut, Leaf, Relay}

// applyChurn drives the connection table through a scripted sequence of
// adds, role-drops and full drops derived from ops, returning the node and
// the shadow of its connections. Addresses are drawn from a small
// deterministic universe so drops hit existing connections and role mixes
// accumulate on single peers.
func applyChurn(seed int64, ops []uint32) (*Node, shadow) {
	n := ringTestNode(seed)
	sh := watch(n)
	universe := make([]Addr, 24)
	for i := range universe {
		universe[i] = RandomAddr(rand.New(rand.NewSource(seed + int64(i))))
	}
	ep := phys.Endpoint{IP: 1, Port: 1}
	for _, op := range ops {
		peer := universe[int(op>>8)%len(universe)]
		typ := churnTypes[int(op>>16)%len(churnTypes)]
		switch op % 4 {
		case 0, 1: // add (twice as likely: tables should be non-trivial)
			n.addConnection(peer, ep, nil, nil, nil, typ)
		case 2: // drop one role, connection may survive
			if c, ok := sh[peer]; ok && c.Has(typ) {
				n.dropConnRole(c, typ, dropTrim)
			}
		case 3: // drop the whole connection
			if c, ok := sh[peer]; ok {
				n.dropConnection(c, false, dropTrim)
			}
		}
	}
	return n, sh
}

// Property: after arbitrary churn, the table's nearestConn agrees with the
// brute-force linear oracle for every destination and exclusion choice.
func TestQuickNearestConnMatchesOracle(t *testing.T) {
	f := func(ops []uint32, dstSel, exSel uint16) bool {
		n, sh := applyChurn(11, ops)
		held := sh.sorted()
		rng := rand.New(rand.NewSource(int64(dstSel)))
		for trial := 0; trial < 8; trial++ {
			var dst Addr
			if trial%2 == 0 && len(held) > 0 {
				// Half the probes aim at a connected peer: the
				// exact-match and exclusion paths must agree too.
				dst = held[int(dstSel)%len(held)].Peer
			} else {
				dst = RandomAddr(rng)
			}
			exclude := Addr{}
			if trial%3 == 0 && len(held) > 0 {
				exclude = held[int(exSel)%len(held)].Peer
			}
			if n.nearestConn(dst, exclude) != sh.nearestLinear(dst, exclude) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// kthHolds checks that kthNearOnSide(side, k) is the k-th entry of the
// sort-per-call oracle for every k, on both sides, and nil past its end.
func kthHolds(n *Node, sh shadow) error {
	for _, right := range []bool{true, false} {
		want := sh.neighborsOnSideLinear(n.addr, right)
		for k := 1; k <= len(want)+1; k++ {
			var w *Connection
			if k <= len(want) {
				w = want[k-1]
			}
			if got := n.kthNearOnSide(right, k); got != w {
				return fmt.Errorf("kthNearOnSide(right=%v, %d) = %v, oracle %v", right, k, got, w)
			}
		}
	}
	return nil
}

// Property: after arbitrary churn, kthHolds.
func TestQuickKthNearOnSideMatchesOracle(t *testing.T) {
	f := func(ops []uint32) bool { return kthHolds(applyChurn(23, ops)) == nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

// buildZeroLatencyRing converges a small overlay on a zero-latency fabric:
// with no propagation delay a packet's entire multi-hop route drains within
// RunUntil(Now()), so the clock never advances and no keepalive or gossip
// timer can interleave with a measurement (the scale harness uses the same
// trick).
func buildZeroLatencyRing(t testing.TB, seed int64, count int) (*sim.Simulator, []*Node) {
	t.Helper()
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	site := net.AddSite("z")
	cfg := FastTestConfig()
	var nodes []*Node
	for i := 0; i < count; i++ {
		name := "zring" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		h := net.AddHost(name, site, net.Root(), phys.HostConfig{})
		n := NewNode(h, AddrFromString(name), cfg)
		var boot []URI
		if len(nodes) > 0 {
			boot = []URI{nodes[0].BootstrapURI()}
		}
		if err := n.Start(boot); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		nodes = append(nodes, n)
		s.RunFor(2 * sim.Second)
	}
	s.RunFor(60 * sim.Second)
	return s, nodes
}

// TestAllocFreeForwarding is the hot-path allocation guard: with the
// virtual clock frozen, routing a pre-built overlay packet (its AppData
// inline, as SendTo builds it; built by hand, so no list takes it back)
// through a converged ring — socket send, propagation event, CPU event,
// per-hop greedy forwarding, final delivery — must not allocate at all in
// steady state. Event and packet pools absorb the per-hop objects; origination
// (SendTo) has its own guard, TestAllocFreeOrigination.
func TestAllocFreeForwarding(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 7, 12)
	src, dst := nodes[2], nodes[9]
	pkt := &OverlayPacket{}
	pkt.app = AppData{Proto: "allocguard", Size: 64}
	pkt.Payload = &pkt.app
	delivered := 0
	dst.RegisterProto("allocguard", func(Addr, AppData) { delivered++ })
	route := func() {
		pkt.Src = src.Addr()
		pkt.Dst = dst.Addr()
		pkt.Mode = DeliverExact
		pkt.Hops = 0
		pkt.Size = overlayHdrSize + 64
		src.routePacket(pkt, src.Addr())
		s.RunUntil(s.Now())
	}
	// Warm the pools and any lazily grown heap/slice capacity.
	for i := 0; i < 64; i++ {
		route()
	}
	if delivered == 0 {
		t.Fatal("warmup packets never delivered; measurement would be vacuous")
	}
	avg := testing.AllocsPerRun(200, route)
	if raceEnabled || poolDebug {
		// The race detector instruments allocations and the packetdebug
		// lists allocate every object; record but don't assert.
		t.Logf("allocs/packet under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per forwarded packet = %.2f, want 0", avg)
	}
}

// TestAllocFreeOrigination extends the hot-path guard to the SendTo
// origination path: originating an application packet — pool acquire, inline
// AppData boxing, multi-hop route, terminal release — allocates nothing in
// steady state, and it does so with the traffic running one way only: the
// packet the far node releases goes on the shard's list, where the sender's
// next SendTo finds it. (With a list per node this needed a reply per
// packet to carry the objects home.)
func TestAllocFreeOrigination(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 11, 12)
	src, dst := nodes[3], nodes[8]
	delivered := 0
	dst.RegisterProto("allocguard", func(Addr, AppData) { delivered++ })
	d := AppData{Proto: "allocguard", Size: 64}
	send := func() {
		src.SendTo(dst.Addr(), DeliverExact, d)
		s.RunUntil(s.Now())
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if delivered != 64 {
		t.Fatalf("%d of 64 warmup packets delivered; measurement would be vacuous", delivered)
	}
	avg := testing.AllocsPerRun(200, send)
	if raceEnabled || poolDebug {
		t.Logf("allocs/origination under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per originated packet, one way = %.2f, want 0", avg)
	}
}

// enableUnsampledTrace arms the flight recorder on every node with a
// sampling rate so sparse no packet in the test will be sampled: the
// enabled-but-unsampled path (one nil check, one inline FNV hash per
// origination) must stay exactly as allocation-free as tracing disabled.
func enableUnsampledTrace(s *sim.Simulator, nodes []*Node) *trace.Tracer {
	tr := trace.New(trace.Options{SampleN: 1 << 62}, s)
	for _, n := range nodes {
		n.EnableTrace(tr)
	}
	return tr
}

// TestAllocFreeForwardingTraced repeats the forwarding guard with the
// flight recorder enabled and the packets unsampled — recording must add
// zero allocations to the hot path.
func TestAllocFreeForwardingTraced(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 7, 12)
	tr := enableUnsampledTrace(s, nodes)
	src, dst := nodes[2], nodes[9]
	pkt := &OverlayPacket{}
	pkt.app = AppData{Proto: "allocguard", Size: 64}
	pkt.Payload = &pkt.app
	delivered := 0
	dst.RegisterProto("allocguard", func(Addr, AppData) { delivered++ })
	route := func() {
		pkt.Src = src.Addr()
		pkt.Dst = dst.Addr()
		pkt.Mode = DeliverExact
		pkt.Hops = 0
		pkt.Size = overlayHdrSize + 64
		src.routePacket(pkt, src.Addr())
		s.RunUntil(s.Now())
	}
	for i := 0; i < 64; i++ {
		route()
	}
	if delivered == 0 {
		t.Fatal("warmup packets never delivered; measurement would be vacuous")
	}
	avg := testing.AllocsPerRun(200, route)
	if n := tr.Shard(0).Len(); n != 0 {
		t.Fatalf("expected no sampled packets at 1-in-2^62, got %d records", n)
	}
	if raceEnabled || poolDebug {
		t.Logf("allocs/packet traced-unsampled under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per forwarded packet with tracing enabled = %.2f, want 0", avg)
	}
}

// TestAllocFreeOriginationTraced repeats the origination guard with the
// flight recorder enabled and the packets unsampled.
func TestAllocFreeOriginationTraced(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 11, 12)
	tr := enableUnsampledTrace(s, nodes)
	src, dst := nodes[3], nodes[8]
	delivered := 0
	dst.RegisterProto("allocguard", func(Addr, AppData) { delivered++ })
	src.RegisterProto("allocguard", func(Addr, AppData) {})
	d := AppData{Proto: "allocguard", Size: 64}
	send := func() {
		src.SendTo(dst.Addr(), DeliverExact, d)
		dst.SendTo(src.Addr(), DeliverExact, d)
		s.RunUntil(s.Now())
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if delivered == 0 {
		t.Fatal("warmup packets never delivered; measurement would be vacuous")
	}
	avg := testing.AllocsPerRun(200, send)
	if n := tr.Shard(0).Len(); n != 0 {
		t.Fatalf("expected no sampled packets at 1-in-2^62, got %d records", n)
	}
	if raceEnabled || poolDebug {
		t.Logf("allocs/origination traced-unsampled under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per originated packet with tracing enabled = %.2f, want 0 (2 sends/run)", avg)
	}
}
