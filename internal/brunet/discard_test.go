package brunet

import (
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

// lose makes the physical layer lose every packet a sends to b, or to
// anyone when b is nil: a fault drop on a's shard, until the test ends.
func lose(t *testing.T, a, b *Node) {
	t.Helper()
	net := a.host.Network()
	net.Perturb = func(src, dst *phys.Host, pm phys.PathModel) (phys.PathModel, bool) {
		return pm, src == a.host && (b == nil || dst == b.host)
	}
	t.Cleanup(func() { net.Perturb = nil })
}

// checkLostRounds runs round — a send that the physical layer loses, lost
// packets each time — once to warm up and then under testing.AllocsPerRun.
// Every round must lose exactly that many packets, leave the lists that
// lists reads as long as it found them, and allocate nothing: what was lost
// is back on its shard's lists for the next round to take.
func checkLostRounds(t *testing.T, net *phys.Network, lost int64, round func(), lists func() []int) {
	t.Helper()
	faults := func() int64 {
		total := net.TotalStats()
		return total.Get("lost.fault")
	}
	round()
	before, fault := lists(), faults()
	avg := testing.AllocsPerRun(100, round)
	if got := faults() - fault; got != 101*lost {
		t.Fatalf("101 rounds lost %d packets, want %d: the measurement would be vacuous", got, 101*lost)
	}
	if after := lists(); !poolDebug {
		for i := range before {
			if after[i] != before[i] {
				t.Errorf("after 101 lost rounds list %d holds %d objects, %d before", i, after[i], before[i])
			}
		}
	}
	if raceEnabled || poolDebug {
		t.Logf("allocs per lost round under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per lost round = %.2f, want 0", avg)
	}
}

// discardCount is an application payload that counts its discards and the
// shard of the last.
type discardCount struct {
	n  int
	on *sim.Simulator
}

func (d *discardCount) Discard(s *sim.Simulator) { d.n, d.on = d.n+1, s }

// TestAllocFreeLostMessages: a keepalive ping or its pong, a link request, a
// CTM (packet and message), an application packet and a tunnel frame (frame
// and the packet inside it) that the physical layer loses are given back to
// the lists of the shard they were lost on, so a lossy path costs no
// allocation a lossless one does not. An application packet hands the loss
// on to what it carries (a vip.Packet under IPOP), once.
func TestAllocFreeLostMessages(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 13, 16)
	net := nodes[0].host.Network()
	a := nodes[3]
	c := a.table.slots[0].c
	var b, far *Node
	for _, n := range nodes {
		switch {
		case n.addr == c.Peer:
			b = n
		case n != a && a.ConnectionTo(n.Addr()) == nil && far == nil:
			far = n
		}
	}
	if b == nil || far == nil || c.Tunneled() {
		t.Fatal("no direct neighbor and no unlinked node for the rounds")
	}
	drain := func() { s.RunUntil(s.Now()) }

	t.Run("ping", func(t *testing.T) {
		lose(t, a, b)
		checkLostRounds(t, net, 1, func() { a.sendPing(c); drain() },
			func() []int { return []int{a.pingListLen()} })
	})
	t.Run("pong", func(t *testing.T) {
		lose(t, b, a)
		checkLostRounds(t, net, 1, func() { a.sendPing(c); drain() },
			func() []int { return []int{a.pingListLen(), b.pingListLen()} })
	})
	t.Run("link request", func(t *testing.T) {
		lose(t, a, far)
		checkLostRounds(t, net, 1, func() {
			a.startLinker(far.Addr(), far.URIs(), StructuredFar)
			drain()
			a.linkers[far.Addr()].finish(false)
		}, func() []int { return []int{a.linkListLen(), a.pool.linkers.Len()} })
	})
	t.Run("CTM", func(t *testing.T) {
		lose(t, a, nil)
		checkLostRounds(t, net, 1, func() { a.sendCTM(far.Addr(), StructuredFar, DeliverExact, Zero); drain() },
			func() []int { return []int{a.pktListLen(), a.ctmListLen()} })
	})
	t.Run("application packet", func(t *testing.T) {
		lose(t, a, nil)
		carried := &discardCount{}
		d := AppData{Proto: "allocguard", Size: 64, Data: carried}
		checkLostRounds(t, net, 1, func() { a.SendTo(far.Addr(), DeliverExact, d); drain() },
			func() []int { return []int{a.pktListLen()} })
		if carried.n != 102 || carried.on != s {
			t.Errorf("102 lost packets discarded what they carried %d times (last on %p), want 102 on %p", carried.n, carried.on, s)
		}
	})

	r := buildZeroLatencySymmetricRing(t, 21, 3, 8, "udp")
	delivered := 0
	orig, relay, peer := tunnelEdge(t, r, &delivered)
	d := AppData{Proto: "allocguard", Size: 64}
	send := func() { orig.SendTo(peer.Addr(), DeliverExact, d); r.s.RunUntil(r.s.Now()) }
	lists := func() []int { return []int{orig.pktListLen(), orig.frameListLen()} }
	t.Run("tunnel frame to the relay", func(t *testing.T) {
		lose(t, orig, relay)
		checkLostRounds(t, r.net, 1, send, lists)
	})
	t.Run("tunnel frame from the relay", func(t *testing.T) {
		lose(t, relay, peer)
		relayed := relay.Stats.Get("tunnel.relayed")
		checkLostRounds(t, r.net, 1, send, lists)
		if got := relay.Stats.Get("tunnel.relayed") - relayed; got != 102 {
			t.Errorf("the relay forwarded %d of 102 frames", got)
		}
	})
	if delivered != 1 {
		t.Errorf("%d packets crossed the tunnel edge, want the first alone", delivered)
	}
}
