package brunet

import (
	"slices"
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

// TestShortcutScoreMatchesReference drives the slice-backed shortcut
// overlord and the four-map reference (oracle_test.go) through one scripted
// traffic pattern, each on its own copy of the same ring: runs of one peer,
// two peers interleaved, a burst that drains, a trickle under the service
// rate that idles out and returns, a ring neighbour, two addresses nobody
// holds that differ in their last bit, and the node's own. After every tick
// both must hold the same peers with the same scores, idle-since and
// last-try times, must have sent CTMs to the same targets in the same order
// and dropped the same shortcuts — and the two rings, which differ in
// nothing else, must have counted the same events on every node. A tick is
// shortcutTick; the script's timings follow the service rate (0.25 per
// tick), the retry cool-down (30 ticks) and the idle drop (120 ticks).
func TestShortcutScoreMatchesReference(t *testing.T) {
	const size, self = 24, 5
	cfg := ShortcutConfig{Threshold: 5}
	sa, ringA := buildZeroLatencyRing(t, 31, size)
	sb, ringB := buildZeroLatencyRing(t, 31, size)
	na, nb := ringA[self], ringB[self]
	dev, ref := newShortcutOverlord(na, cfg), newRefShortcut(nb, cfg)

	var far []Addr // nodes na holds no connection to
	var near Addr  // a ring neighbour: scored, never asked for a shortcut
	for _, n := range ringA {
		if c, ok := na.lookup(n.addr); ok && c.structured() {
			near = n.addr
		} else if !ok && n != na {
			far = append(far, n.addr)
		}
	}
	if len(far) < 5 || near.IsZero() {
		t.Fatalf("ring gives node %d only %d strangers and neighbour %v", self, len(far), near)
	}
	ghost := AddrFromString("nobody holds this address")
	twin := ghost // same leading word, told apart by the last byte only
	twin[AddrBytes-1] ^= 1
	universe := append([]Addr{near, ghost, twin, na.addr}, far...)

	observe := func(peer Addr, pkts float64) {
		t.Helper()
		dev.observe(peer, pkts)
		ref.observe(peer, pkts)
		if !slices.IsSortedFunc(dev.scored, func(a, b scoredPeer) int { return refCmp(a.peer, b.peer) }) {
			t.Fatalf("scored peers out of address order after observe(%v)", peer)
		}
	}
	shrank, regrew := false, false
	for tick := 0; tick < 360; tick++ {
		start := len(dev.scored)
		if tick < 40 || tick >= 170 { // a run of one peer, idle for 130 ticks, back again
			for i := 0; i < 3; i++ {
				observe(far[0], 1)
			}
		}
		if tick >= 10 && tick < 30 { // two transfers interleaved packet by packet
			for i := 0; i < 4; i++ {
				observe(far[1], 1)
				observe(far[2], 1)
			}
		}
		if tick == 5 { // one burst that drains to idle by tick 44, a second before the idle shortcut is dropped
			observe(far[3], 10)
		}
		if tick == 155 {
			observe(far[3], 10)
		}
		observe(far[4], 0.2) // under the service rate: never scores, idles out, is seen again
		observe(near, 8)
		observe(ghost, 2)
		observe(twin, 1)
		observe(ghost, 1)
		observe(na.addr, 5)

		before := len(dev.scored)
		sa.RunUntil(sa.Now().Add(shortcutTick))
		sb.RunUntil(sb.Now().Add(shortcutTick))
		sent := len(ref.ctms)
		dev.tick()
		ref.tick()
		regrew = regrew || (shrank && before > start) // a peer tick had forgotten was seen again
		shrank = shrank || len(dev.scored) < before

		now := sa.Now()
		var ctms []Addr
		for i, e := range dev.scored {
			if i > 0 && refCmp(dev.scored[i-1].peer, e.peer) >= 0 {
				t.Fatalf("tick %d: scored peers %d and %d out of address order", tick, i-1, i)
			}
			zs, idle := ref.zeroSince[e.peer]
			lt, tried := ref.lastTry[e.peer]
			if _, ok := ref.score[e.peer]; !ok || e.arrivals != 0 || e.idle != idle || (idle && e.zeroSince != zs) || e.tried != tried || (tried && e.lastTry != lt) {
				t.Fatalf("tick %d: peer %v is %+v; reference scored=%v idle=%v since %v tried=%v at %v", tick, e.peer, e, ok, idle, zs, tried, lt)
			}
			if e.tried && e.lastTry == now {
				ctms = append(ctms, e.peer)
			}
		}
		if len(dev.scored) != len(ref.score) || len(ref.arrivals) != 0 {
			t.Fatalf("tick %d: %d peers scored, reference %d (+%d pending)", tick, len(dev.scored), len(ref.score), len(ref.arrivals))
		}
		if !slices.Equal(ctms, ref.ctms[sent:]) {
			t.Fatalf("tick %d: CTMs to %v, reference %v", tick, ctms, ref.ctms[sent:])
		}
		for _, p := range universe {
			if got, want := dev.score(p), ref.Score(p); got != want {
				t.Fatalf("tick %d: Score(%v) = %v, reference %v", tick, p, got, want)
			}
		}
		for _, k := range []string{"shortcut.ctm", "shortcut.idle_dropped", "ctm.sent"} {
			if got, want := na.Stats.Get(k), nb.Stats.Get(k); got != want {
				t.Fatalf("tick %d: %s = %d, reference %d", tick, k, got, want)
			}
		}
	}
	if na.Stats.Get("shortcut.ctm") < 5 || na.Stats.Get("shortcut.idle_dropped") == 0 || !shrank || !regrew {
		t.Fatalf("script exercised too little: %d CTMs, %d idle drops, shrank %v, regrew %v",
			na.Stats.Get("shortcut.ctm"), na.Stats.Get("shortcut.idle_dropped"), shrank, regrew)
	}
	if dev.score(na.addr) != 0 || dev.score(near) < cfg.Threshold {
		t.Fatalf("own address scored %v, ring neighbour %v", dev.score(na.addr), dev.score(near))
	}
	for i := range ringA {
		if a, b := ringA[i].Stats.String(), ringB[i].Stats.String(); a != b {
			t.Fatalf("node %d counted differently beside the reference:\n%s\n%s", i, a, b)
		}
	}
}

// TestLinkerOrder pins the trial order: own transport first, stable within
// each transport, and a list already in that order handed on as it is.
func TestLinkerOrder(t *testing.T) {
	u := func(transport string, port uint16) URI {
		return URI{Transport: transport, EP: phys.Endpoint{IP: phys.MustParseIP("128.9.0.1"), Port: port}}
	}
	for _, tc := range []struct {
		name        string
		own         string
		in, want    []URI
		sameBacking bool
	}{
		{"udp node, peer's advert", "udp", []URI{u("udp", 1), u("udp", 2), u("tcp", 3)}, []URI{u("udp", 1), u("udp", 2), u("tcp", 3)}, true},
		{"tcp node, same advert", "tcp", []URI{u("udp", 1), u("udp", 2), u("tcp", 3)}, []URI{u("tcp", 3), u("udp", 1), u("udp", 2)}, false},
		{"tcp node, mixed list", "tcp", []URI{u("udp", 1), u("tcp", 2), u("udp", 3), u("tcp", 4)}, []URI{u("tcp", 2), u("tcp", 4), u("udp", 1), u("udp", 3)}, false},
		{"all foreign", "tcp", []URI{u("udp", 1), u("udp", 2)}, []URI{u("udp", 1), u("udp", 2)}, true},
		{"all own", "udp", []URI{u("udp", 1)}, []URI{u("udp", 1)}, true},
		{"empty", "udp", nil, nil, true},
	} {
		got := trialOrder(tc.in, tc.own)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
		if same := len(got) == 0 || &got[0] == &tc.in[0]; same != tc.sameBacking {
			t.Errorf("%s: result shares the argument's array: %v, want %v", tc.name, same, tc.sameBacking)
		}
	}
}

// TestLinkerResendAllocFree: arming the resend timer, firing it and arming
// the next allocates nothing — the timer carries the linker through AtArg.
func TestLinkerResendAllocFree(t *testing.T) {
	s := sim.New(1)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	// Never started: the only events are the linker's own, and every resend
	// finds the node down and finishes the linker. Built by hand, it is no
	// list's, so finish leaves it as it is (sim.FreeList.Put).
	n := NewNode(net.AddHost("h", net.AddSite("z"), net.Root(), phys.HostConfig{}), AddrFromString("h"), FastTestConfig())
	lk := &linker{node: n, target: AddrFromString("ghost"), ctype: StructuredFar}
	allocGuard(t, "linker resend timer: arm, fire, re-arm", 0, func() {
		lk.armResend()
		if s.Run(); s.Pending() != 0 {
			t.Fatal("resend timer did not fire")
		}
		lk.armResend()
		lk.timer.Cancel()
	})
	// The callback is the old closure's body: it counts the attempt and
	// moves to the next trial slot once the retry budget is burned.
	lk.uriIdx, lk.attempt, lk.failTimeout = 0, n.cfg.LinkRetries, 0
	timeouts := n.Stats.Get("link.uri_exhausted.timeout")
	lk.armResend()
	s.Run()
	if lk.uriIdx != 1 || lk.attempt != 0 || lk.failTimeout != 1 || n.Stats.Get("link.uri_exhausted.timeout") != timeouts+1 {
		t.Fatalf("resend past the budget left the linker at %+v", lk)
	}
}

// BenchmarkShortcutObserve is the shortcut overlord's per-packet cost: one
// peer for the whole run (what a transfer's end point sees), and eight peers
// in turn (every observe lands on another entry).
func BenchmarkShortcutObserve(b *testing.B) {
	for _, bc := range []struct {
		name  string
		peers int
	}{{"one-peer", 1}, {"8-peers-interleaved", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			_, nodes := buildZeroLatencyRing(b, 7, 2)
			sco := newShortcutOverlord(nodes[0], *DefaultShortcutConfig())
			peers := make([]Addr, bc.peers)
			for i := range peers {
				peers[i] = AddrFromString(string(rune('a' + i)))
				sco.observe(peers[i], 1)
			}
			i := 0
			observe := func() {
				sco.observe(peers[i], 1)
				if i++; i == len(peers) {
					i = 0
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				observe()
			}
			b.StopTimer()
			if a := testing.AllocsPerRun(64, observe); a != 0 && !raceEnabled {
				b.Fatalf("%.2f allocs per observe, want 0", a)
			}
		})
	}
}
