package brunet

import (
	"fmt"
	"slices"
	"testing"

	"wow/internal/sim"
)

// keepaliveBroken reports the first broken invariant of n's keepalive timer,
// or "" when all hold: with an empty table nothing is armed; otherwise the
// timer is pending, armed for a connection in the table whose due key comes
// first of them all, at that key's instant.
func keepaliveBroken(n *Node) string {
	var first *Connection
	for _, s := range n.table.slots {
		if first == nil || s.c.due.Before(first.due) {
			first = s.c
		}
	}
	switch {
	case first == nil && (n.armed != nil || n.keepalive.Active()):
		return fmt.Sprintf("empty table, yet armed %v (pending %v)", n.armed != nil, n.keepalive.Active())
	case first == nil:
		return ""
	case n.armed != first:
		return fmt.Sprintf("armed for %v, but %s is due first", n.armed, first.Peer)
	case !n.keepalive.Active() || n.keepalive.Time() != first.due.When:
		return fmt.Sprintf("timer pending %v at %v, want %v", n.keepalive.Active(), n.keepalive.Time(), first.due.When)
	}
	return ""
}

// tickers counts the tickers a running node keeps armed: the near and far
// overlords', the shortcut overlord's and the flight recorder's health
// sampler when configured.
func tickers(n *Node) int {
	k := 2
	if n.sco != nil {
		k++
	}
	if n.flight != nil && n.flight.health > 0 {
		k++
	}
	return k
}

// TestOneKeepaliveEventPerNode: on a settled ring the queue holds, per live
// node, its tickers and one keepalive event, however many connections the
// node keeps alive — and each node's timer is armed at the earliest due key
// of its table, at every instant a run stops at.
func TestOneKeepaliveEventPerNode(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 17, 24)
	want, conns := 0, 0
	for _, n := range nodes {
		want += 1 + tickers(n)
		conns += len(n.table.slots)
		if msg := keepaliveBroken(n); msg != "" {
			t.Fatalf("node %s: %s", n.addr, msg)
		}
	}
	if conns < 4*len(nodes) {
		t.Fatalf("%d connections on %d nodes: the ring is too thin to tell one timer per node from one per connection", conns, len(nodes))
	}
	if got := s.Pending(); got != want {
		t.Fatalf("Pending() = %d on a settled ring of %d nodes holding %d connections, want %d (tickers + one keepalive each)",
			got, len(nodes), conns, want)
	}
	for i := 0; i < 40; i++ {
		s.RunFor(777 * sim.Millisecond)
		for _, n := range nodes {
			if msg := keepaliveBroken(n); msg != "" {
				t.Fatalf("after %d steps, node %s: %s", i+1, n.addr, msg)
			}
		}
	}
}

// TestKeepaliveRearmsArmedConnection: dropping, fast-probing or stopping
// the connection a node's timer is armed for moves the timer without firing
// anything, and leaves no event of the old arming pending.
func TestKeepaliveRearmsArmedConnection(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(n *Node, c *Connection)
	}{
		{"drop", func(n *Node, c *Connection) { n.dropConnection(c, false, dropTrim) }},
		{"fast probe", func(n *Node, c *Connection) {
			n.fastProbe(c)
			if !c.suspected || !c.dueTimeout {
				t.Fatalf("fast probe: suspected %v, due a deadline %v", c.suspected, c.dueTimeout)
			}
		}},
		{"stop", func(n *Node, c *Connection) { n.Stop() }},
	} {
		s, nodes := buildZeroLatencyRing(t, 19, 16)
		n := settledNode(t, nodes)
		c, old := n.armed, n.keepalive
		if c == nil || c.awaiting != 0 || !old.Active() {
			t.Fatalf("%s: armed %v, awaiting %d, pending %v", tc.name, c, c.awaiting, old.Active())
		}
		processed, pending, own := s.Processed, s.Pending(), 1+tickers(n)
		tc.do(n, c)
		if old.Active() {
			t.Errorf("%s: the old arming is still pending", tc.name)
		}
		if msg := keepaliveBroken(n); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
		if s.Processed != processed {
			t.Errorf("%s: %d events fired", tc.name, s.Processed-processed)
		}
		if tc.name == "stop" {
			if n.armed != nil || n.keepalive.Active() {
				t.Errorf("stop: a keepalive is still armed")
			}
			if got := pending - s.Pending(); got != own {
				t.Errorf("stop took %d events off the queue, want its tickers and one keepalive (%d)", got, own)
			}
			continue
		}
		if n.armed == nil {
			t.Errorf("%s: nothing armed", tc.name)
		}
	}
}

// TestSameInstantProbesKeepOrder: two nodes fast-probe one dead peer at the
// same instant, so their ping deadlines — and the death verdicts at the end
// of them — tie to the nanosecond. The first to probe must still be the
// first to time out, as when every connection had a timer of its own, even
// when its node's timer is armed elsewhere in between and returns to the
// probe's deadline only later: the deadline keeps the key reserved when the
// probe set it.
func TestSameInstantProbesKeepOrder(t *testing.T) {
	r := buildRing(t, 29, 6)
	victim := r.nodes[3]
	var probers []*Node
	for _, n := range r.nodes {
		if n != victim && n.ConnectionTo(victim.Addr()) != nil {
			probers = append(probers, n)
		}
	}
	if len(probers) < 2 {
		t.Fatalf("%d nodes linked to the victim, want two", len(probers))
	}
	a, b := probers[1], probers[0] // a probes first, though b sorts first
	type verdict struct {
		node string
		at   sim.Time
	}
	var got []verdict
	for _, n := range []*Node{a, b} {
		n := n
		n.onDisconnection(func(c *Connection) {
			if c.Peer == victim.Addr() {
				got = append(got, verdict{n.Addr().String(), r.s.Now()})
			}
		})
	}
	victim.Stop()
	// a's timer serves another connection first, a nanosecond before the
	// deadline: the deadline waits outside the queue until then, so a's
	// node comes back to it after b's node has armed whatever it arms.
	var other *Connection
	for _, s := range a.table.slots {
		if s.c.Peer != victim.Addr() {
			other = s.c
			break
		}
	}
	a.setDue(other, r.s.Now().Add(a.cfg.PingTimeout-1), false)
	suspect := suspectMsg{From: r.nodes[0].Addr(), Dead: victim.Addr()}
	a.handleSuspect(suspect)
	b.handleSuspect(suspect)
	if c := a.ConnectionTo(victim.Addr()); a.armed == c || !c.due.Before(b.ConnectionTo(victim.Addr()).due) {
		t.Fatalf("a's timer armed for %v; a's deadline before b's: %v", a.armed, c.due.Before(b.ConnectionTo(victim.Addr()).due))
	}
	at := r.s.Now().Add(a.cfg.PingTimeout * 3) // deadline, then twice it
	r.s.RunFor(a.cfg.PingTimeout * 4)
	want := []verdict{{a.Addr().String(), at}, {b.Addr().String(), at}}
	if !slices.Equal(got, want) {
		t.Fatalf("death verdicts %v, want %v", got, want)
	}
}
