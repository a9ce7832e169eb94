package brunet

import (
	"fmt"
	"math/rand"
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

// settledNode picks a non-founder node of a settled ring that holds its
// full complement of near and far links plus its leaf link — the steady
// state the maintenance plane spends its life in.
func settledNode(t testing.TB, nodes []*Node) *Node {
	t.Helper()
	for _, n := range nodes[1:] {
		if n.roleCount[StructuredNear] >= 2*nearPerSide && n.roleCount[StructuredFar] >= n.cfg.FarCount && n.near.leafConn() != nil {
			return n
		}
	}
	t.Fatal("no node of the ring is settled; measurement would be vacuous")
	return nil
}

// keepaliveRound returns one full keepalive exchange on c with the clock
// frozen (zero-latency fabric): the ping tick fires, its deadline expires
// once before the answer is seen (resend, doubled re-arm), both pings are
// answered by pings flipped into pongs, and the expired deadline of the
// answered round re-arms the next tick. Each step sets c's next key and
// moves the node's keepalive timer as a firing would.
func keepaliveRound(s *sim.Simulator, n *Node, c *Connection) func() {
	return func() {
		c.lastHeard = s.Now().Add(-n.cfg.PingInterval) // stale: the tick must ping
		n.pingTick(c)
		n.pingTimeout(c) // unanswered so far: resend, re-arm at twice the wait
		s.RunUntil(s.Now())
		n.pingTimeout(c) // answered meanwhile: arm the next tick
	}
}

// nearMaintainPass returns one near-overlord pass plus the delivery of the
// status messages it sent, clock frozen.
func nearMaintainPass(s *sim.Simulator, n *Node) func() {
	return func() {
		n.near.maintain()
		s.RunUntil(s.Now())
	}
}

// allocGuard asserts f allocates at most max per run once warm; under the
// race detector (which instruments allocation) or packetdebug (whose lists
// allocate every object) it only logs.
func allocGuard(t *testing.T, what string, max float64, f func()) {
	t.Helper()
	for i := 0; i < 32; i++ {
		f()
	}
	avg := testing.AllocsPerRun(200, f)
	if raceEnabled || poolDebug {
		t.Logf("%s: %.2f allocs/run under -race or packetdebug (not asserted)", what, avg)
		return
	}
	if avg > max {
		t.Errorf("%s: %.2f allocs/run, want at most %v", what, avg, max)
	}
}

// TestAllocFreeMaintenance is the maintenance-plane allocation guard: on a
// settled 64-node ring a node-second of standing work — keepalives, the
// far and tunnel overlords' idle passes, the routability and wanted()
// probes — allocates nothing, and so does a near-overlord pass: on an
// unchanged neighborhood it sends every neighbor the status message it has
// already published.
func TestAllocFreeMaintenance(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 13, 64)
	n := settledNode(t, nodes)
	var c *Connection
	for _, cand := range n.Connections() {
		if cand.Has(StructuredNear) && !cand.Tunneled() && cand.Stream == nil {
			c = cand
			break
		}
	}
	if c == nil {
		t.Fatal("settled node has no direct near link")
	}

	sent, resent := n.Stats.Get("ping.sent"), n.Stats.Get("ping.resent")
	allocGuard(t, "keepalive round", 0, keepaliveRound(s, n, c))
	if n.Stats.Get("ping.sent") == sent || n.Stats.Get("ping.resent") == resent || c.closed || c.awaiting != 0 {
		t.Fatalf("keepalive rounds did not complete (sent %d→%d, resent %d→%d, closed %v, awaiting %d)",
			sent, n.Stats.Get("ping.sent"), resent, n.Stats.Get("ping.resent"), c.closed, c.awaiting)
	}

	ctm := n.Stats.Get("ctm.sent")
	allocGuard(t, "farOverlord.maintain at full FarCount", 0, n.far.maintain)
	if n.Stats.Get("ctm.sent") != ctm {
		t.Fatal("far overlord topped up on a full table")
	}

	allocGuard(t, "tunnel overlord with no tunnel edges", 0, func() {
		n.tun.onConnection(c)
		n.tun.relaySuspected(c.Peer)
		n.tun.relayLost(c.Peer)
	})
	allocGuard(t, "IsRoutable", 0, func() {
		if !n.IsRoutable() {
			t.Fatal("settled node not routable")
		}
	})
	probe := nodes[0].addr
	allocGuard(t, "wanted", 0, func() { n.near.wanted(probe) })

	// The shortcut overlord ticks on every router; only end points of
	// tunnelled traffic have anything scored.
	sco := newShortcutOverlord(n, *DefaultShortcutConfig())
	allocGuard(t, "shortcutOverlord.tick with nothing scored", 0, sco.tick)
	// Arrivals just above the drain: scores stay positive and far below the
	// threshold, so no CTM goes out.
	trickle := 1.01 * shortcutServiceRate * shortcutTick.Seconds()
	allocGuard(t, "shortcutOverlord.tick over scored peers", 0, func() {
		for _, peer := range nodes[:16] {
			sco.observe(peer.addr, trickle)
		}
		sco.tick()
	})
	known := nodes[3].addr
	allocGuard(t, "shortcutOverlord.observe on a known peer", 0, func() { sco.observe(known, 0) })
	if len(sco.scored) < 15 || n.Stats.Get("shortcut.ctm") != 0 {
		t.Fatalf("shortcut overlord scored %d peers, sent %d CTMs", len(sco.scored), n.Stats.Get("shortcut.ctm"))
	}

	status := n.Stats.Get("status.sent")
	allocGuard(t, "nearOverlord.maintain", 0, nearMaintainPass(s, n))
	if n.Stats.Get("status.sent") == status {
		t.Fatal("near overlord passes gossiped nothing")
	}
}

// restartMember returns a ring member (not the founder) and its restart: a
// Stop and a Start through the founder's URI, as a crash-restart or a
// migration runs it (§V-C).
func restartMember(t testing.TB, nodes []*Node) (*Node, func()) {
	n, boot := nodes[5], []URI{nodes[0].BootstrapURI()}
	return n, func() {
		n.Stop()
		if err := n.Start(boot); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartHoldsNoOldOverlords: a restart leaves the node holding nothing
// of its stopped overlords, and allocates the same fixed few objects every
// time. The overlords are called directly, so a Start registers no
// callbacks: a Start that registered its overlords' would leave them in the
// node's observer lists at every restart, each entry pinning a dead overlord
// (its adverts, its candidate map) for the node's life.
func TestRestartHoldsNoOldOverlords(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 13, 16)
	n, restart := restartMember(t, nodes)
	observers := len(n.onConn) + len(n.onDisc)
	var allocs []uint64
	for i := 1; i <= 5; i++ {
		allocs = append(allocs, mallocs(restart))
		s.RunUntil(s.Now()) // the rejoin, clock frozen
		if got := len(n.onConn) + len(n.onDisc); got != observers {
			t.Fatalf("restart %d: the node holds %d connection callbacks, %d before the first restart", i, got, observers)
		}
		if !n.IsRoutable() || n.near.leafConn() == nil {
			t.Fatalf("restart %d: the node did not rejoin (routable %v, leaf %v)", i, n.IsRoutable(), n.near.leafConn())
		}
	}
	// What a Start keeps, 10 objects: four of phys's (the UDP socket; the
	// stream listener, its TCP socket and that socket's receive closure), the
	// listener's handler method value (n.acceptStream; the UDP socket's
	// receiver is the node itself), the overlords block and its tunnel
	// overlord's candidate map, the shortcut overlord (FastTestConfig
	// configures shortcuts), the copy of the bootstrap list, and the node's
	// URI list, rebuilt on the new port for the leaf link request. Stop
	// allocates nothing.
	const kept = 10
	if raceEnabled || poolDebug {
		t.Logf("allocs per Stop+Start under -race or packetdebug: %v (not asserted)", allocs)
		return
	}
	for i, got := range allocs {
		if got != allocs[0] || got > kept {
			t.Fatalf("allocs per Stop+Start: %v; want the same on every restart and at most %d (restart %d)", allocs, kept, i+1)
		}
	}
}

func BenchmarkKeepaliveRound(b *testing.B) {
	s, nodes := buildZeroLatencyRing(b, 13, 64)
	n := settledNode(b, nodes)
	round := keepaliveRound(s, n, n.firstConn(maskOf(StructuredNear)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

func BenchmarkNearMaintain(b *testing.B) {
	s, nodes := buildZeroLatencyRing(b, 13, 64)
	pass := nearMaintainPass(s, settledNode(b, nodes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// BenchmarkCTMExchange puts the connect/link handshake on record: one far
// CTM and the handshake it sets off (TestAllocHandshake's exchange) between
// two unlinked nodes of the warmed 64-node ring, clock frozen, then both ends
// of the new link dropped so the next round finds the ring as it was. The
// pairs are taken in turn from those unlinked at the start.
func BenchmarkCTMExchange(b *testing.B) {
	s, nodes := buildZeroLatencyRing(b, 13, 64)
	type pair struct{ a, b *Node }
	var pairs []pair
	for i := 0; len(pairs) < 32; i++ {
		x, y := nodes[(7*i+3)%64], nodes[(11*i+29)%64]
		if x != y && x.ConnectionTo(y.Addr()) == nil {
			pairs = append(pairs, pair{x, y})
		}
	}
	exchange := func(p pair) {
		p.a.sendCTM(p.b.Addr(), StructuredFar, DeliverExact, Zero)
		s.RunUntil(s.Now())
		ca, cb := p.a.ConnectionTo(p.b.Addr()), p.b.ConnectionTo(p.a.Addr())
		if ca == nil || cb == nil {
			b.Fatalf("%v -> %v did not link both ends", p.a.Addr(), p.b.Addr())
		}
		p.a.dropConnection(ca, false, dropTrim)
		p.b.dropConnection(cb, false, dropTrim)
	}
	for _, p := range pairs {
		exchange(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange(pairs[i%len(pairs)])
	}
}

// BenchmarkNodeStart puts the join's fixed cost on record: a Stop and a Start
// of a member of a settled 16-node ring (TestRestartHoldsNoOldOverlords's
// restart), clock frozen. The rejoin it sets off drains outside the timer.
func BenchmarkNodeStart(b *testing.B) {
	s, nodes := buildZeroLatencyRing(b, 13, 16)
	_, restart := restartMember(b, nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restart()
		b.StopTimer()
		s.RunUntil(s.Now())
		b.StartTimer()
	}
}

// BenchmarkConnTableChurn puts the write side of the connection table on
// record: one add plus one drop of a structured connection against a table
// already holding size others, so the cost of keeping the address and ring
// indexes sorted (two binary searches and two slice shifts each way) shows
// next to the reads it buys.
func BenchmarkConnTableChurn(b *testing.B) {
	for _, size := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			n := ringTestNode(5)
			rng := rand.New(rand.NewSource(5))
			ep := phys.Endpoint{IP: 1, Port: 1}
			for i := 0; i < size; i++ {
				n.addConnection(RandomAddr(rng), ep, nil, nil, nil, StructuredFar)
			}
			peers := make([]Addr, 256)
			for i := range peers {
				peers[i] = RandomAddr(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := n.addConnection(peers[i%len(peers)], ep, nil, nil, nil, StructuredFar)
				n.dropConnection(c, false, dropTrim)
			}
		})
	}
}
