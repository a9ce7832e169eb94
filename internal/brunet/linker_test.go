package brunet

import (
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

// TestLinkerURIExhaustionGivesUp drives a linker through a target URI list
// where nobody answers: every URI must be exhausted on the §IV-D backoff
// schedule and the attempt abandoned with link.giveup.
func TestLinkerURIExhaustionGivesUp(t *testing.T) {
	r := buildRing(t, 21, 4)
	n := r.nodes[0]

	// Two endpoints on a live host where nothing listens.
	dead := r.net.AddHost("dead", r.site, r.net.Root(), phys.HostConfig{})
	ghost := AddrFromString("ghost")
	uris := []URI{
		{Transport: "udp", EP: phys.Endpoint{IP: dead.IP(), Port: 4001}},
		{Transport: "udp", EP: phys.Endpoint{IP: dead.IP(), Port: 4002}},
	}
	n.startLinker(ghost, uris, StructuredNear)
	if _, active := n.linkers[ghost]; !active {
		t.Fatal("linker did not register")
	}

	// FastTestConfig: LinkResend 200ms ×2 backoff, 3 retries → one URI
	// burns 0.2+0.4+0.8+1.6 = 3 s; two URIs well under a minute.
	r.s.RunFor(sim.Minute)
	if got := n.Stats.Get("link.uri_exhausted"); got != 2 {
		t.Errorf("link.uri_exhausted = %d, want 2 (one per dead URI)", got)
	}
	// Failure taxonomy: silent endpoints are timeouts, not rejects.
	if got := n.Stats.Get("link.uri_exhausted.timeout"); got != 2 {
		t.Errorf("link.uri_exhausted.timeout = %d, want 2", got)
	}
	if got := n.Stats.Get("link.uri_exhausted.reject"); got != 0 {
		t.Errorf("link.uri_exhausted.reject = %d, want 0", got)
	}
	if got := n.Stats.Get("link.giveup"); got != 1 {
		t.Errorf("link.giveup = %d, want 1", got)
	}
	if got := n.Stats.Get("link.giveup.timeout"); got != 1 {
		t.Errorf("link.giveup.timeout = %d, want 1", got)
	}
	if _, active := n.linkers[ghost]; active {
		t.Error("linker still registered after giving up")
	}
	if n.ConnectionTo(ghost) != nil {
		t.Error("connection materialized out of nothing")
	}
}

// TestLinkerResendBackoffProgression pins the resend schedule: requests go
// out at LinkResend·linkBackoff^i spacing (200ms, 400ms, 800ms, … under
// FastTestConfig), not on a fixed interval.
func TestLinkerResendBackoffProgression(t *testing.T) {
	r := buildRing(t, 22, 4)
	n := r.nodes[0]
	dead := r.net.AddHost("dead", r.site, r.net.Root(), phys.HostConfig{})
	ghost := AddrFromString("ghost")
	base := n.Stats.Get("link.requests")

	n.startLinker(ghost, []URI{{Transport: "udp", EP: phys.Endpoint{IP: dead.IP(), Port: 4001}}}, StructuredNear)
	sent := func() int64 { return n.Stats.Get("link.requests") - base }

	// Resends fire at t = 0.2, 0.6, 1.4 s after the initial send.
	for _, step := range []struct {
		runFor sim.Duration
		want   int64
	}{
		{100 * sim.Millisecond, 1}, // t=0.1s: initial send only
		{200 * sim.Millisecond, 2}, // t=0.3s: first resend at 0.2s
		{200 * sim.Millisecond, 2}, // t=0.5s: second resend not due until 0.6s
		{200 * sim.Millisecond, 3}, // t=0.7s
		{800 * sim.Millisecond, 4}, // t=1.5s: third resend at 1.4s
	} {
		r.s.RunFor(step.runFor)
		if got := sent(); got != step.want {
			t.Fatalf("at t=%s: %d requests sent, want %d", r.s.Now(), got, step.want)
		}
	}
}

// TestBusyRaceRandomizedRestart exercises the §IV-B2 busy path: a linker
// told "busy" yields, then restarts with randomized exponential backoff —
// and must eventually establish the link itself when the peer's symmetric
// attempt never materializes.
func TestBusyRaceRandomizedRestart(t *testing.T) {
	r := buildRing(t, 23, 6)
	a, b := r.nodes[0], r.nodes[1]
	if c := a.ConnectionTo(b.Addr()); c != nil && c.Has(StructuredFar) {
		t.Skip("seed formed the target link already")
	}

	a.startLinker(b.Addr(), b.URIs(), StructuredFar)
	lk, active := a.linkers[b.Addr()]
	if !active {
		t.Fatal("linker did not register")
	}
	// Simulate losing the race: the peer reports its own attempt in
	// flight — but never actually links (the middlebox-defeated case).
	a.handleLinkError(&linkMsg{From: b.Addr(), Reply: true, refusal: refuseBusy, Token: lk.token})
	if _, still := a.linkers[b.Addr()]; still {
		t.Fatal("busy error did not terminate the yielding linker")
	}
	if a.busyRetry[b.Addr()] != 1 {
		t.Fatalf("busyRetry = %d, want 1", a.busyRetry[b.Addr()])
	}
	if got := a.Stats.Get("link.uri_exhausted.busy"); got != 1 {
		t.Fatalf("link.uri_exhausted.busy = %d, want 1", got)
	}

	// The randomized restart must re-issue the attempt and win.
	r.s.RunFor(30 * sim.Second)
	c := a.ConnectionTo(b.Addr())
	if c == nil || !c.Has(StructuredFar) {
		t.Fatal("restarted linker never established the connection")
	}
	if a.busyRetry[b.Addr()] != 0 {
		t.Errorf("busyRetry not reset after success: %d", a.busyRetry[b.Addr()])
	}
}

// TestAllocFreeRefusal: the winner of a linking race turns the loser's
// request away with a link reply from the shard's list, refusal set, and the
// loser's handleWire routes it to handleLinkError and releases it. Once warm
// a busy race — the request, its refusal and their two trips — allocates
// nothing. The clock stays frozen (zero-latency ring).
func TestAllocFreeRefusal(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 13, 16)
	var x, y *Node // x, the smaller address, wins
	for _, a := range nodes {
		for _, b := range nodes {
			if x == nil && a.addr.Less(b.addr) && a.ConnectionTo(b.addr) == nil {
				x, y = a, b
			}
		}
	}
	if x == nil {
		t.Fatal("every pair of the ring is linked")
	}
	// x's own attempt toward y dials an endpoint where nothing listens, so it
	// stays in flight for as long as the clock stands still.
	net := x.host.Network()
	dead := net.AddHost("dead", x.host.Site, net.Root(), phys.HostConfig{})
	x.startLinker(y.addr, []URI{{Transport: "udp", EP: phys.Endpoint{IP: dead.IP(), Port: 4001}}}, StructuredFar)
	// y dials x too, and is told busy.
	busy := y.Stats.Get("link.uri_exhausted.busy")
	y.startLinker(x.addr, x.URIs(), StructuredFar)
	s.RunUntil(s.Now())
	if y.Stats.Get("link.uri_exhausted.busy") != busy+1 {
		t.Fatal("y's request was not refused busy: the race the guard repeats did not happen")
	}
	// The race again, with y's request made by hand: its token is no linker's
	// any more, so y ignores the refusal (after the token scan of
	// handleLinkError) and starts no retry that would allocate.
	won, links := x.Stats.Get("link.race_won"), x.linkListLen()
	from := y.sock.LocalEndpoint()
	allocGuard(t, "a busy race", 0, func() {
		req := y.pool.links.Get()
		req.From, req.To, req.Type, req.Token, req.URIs = y.addr, x.addr, StructuredFar, y.tokenSeq, y.URIs()
		x.handleWire(wire{ep: from}, req)
		s.RunUntil(s.Now())
	})
	if got := x.Stats.Get("link.race_won") - won; got != 32+201 {
		t.Errorf("x won %d races, want %d", got, 32+201)
	}
	if !poolDebug && x.linkListLen() != links {
		t.Errorf("the list holds %d link messages, %d before the races: a refusal was kept or not released", x.linkListLen(), links)
	}
}

// TestRelinkRepairsAfterTransientBlackhole exercises the repair overlord:
// a structured link killed by a transient blackhole (ping timeout, an
// involuntary drop) must be re-established from the cached URIs once the
// network heals, with the relink counters recording the repair.
func TestRelinkRepairsAfterTransientBlackhole(t *testing.T) {
	r := buildRing(t, 24, 8)
	order := r.ringOrder()
	a, b := order[0], order[1]
	if a.ConnectionTo(b.Addr()) == nil {
		t.Fatal("ring neighbors not connected")
	}

	// Blackhole the pair until their connection times out.
	cut := true
	r.net.Perturb = func(src, dst *phys.Host, pm phys.PathModel) (phys.PathModel, bool) {
		if !cut {
			return pm, false
		}
		pair := (src == a.Host() && dst == b.Host()) || (src == b.Host() && dst == a.Host())
		return pm, pair
	}
	deadline := r.s.Now().Add(2 * sim.Minute)
	for a.ConnectionTo(b.Addr()) != nil && r.s.Now() < deadline {
		r.s.RunFor(sim.Second)
	}
	if a.ConnectionTo(b.Addr()) != nil {
		t.Fatal("blackholed link never timed out")
	}

	cut = false
	relinksBefore := a.Stats.Get("relink.success") + b.Stats.Get("relink.success")
	// FastTestConfig RelinkBase is 1s; a few jittered attempts suffice.
	r.s.RunFor(2 * sim.Minute)
	c := a.ConnectionTo(b.Addr())
	if c == nil {
		t.Fatal("repair overlord never re-linked the lost neighbor")
	}
	after := a.Stats.Get("relink.success") + b.Stats.Get("relink.success")
	if after == relinksBefore {
		t.Errorf("relink.success did not advance (a=%s b=%s)", a.Stats.String(), b.Stats.String())
	}
	if a.Stats.Get("relink.attempts")+b.Stats.Get("relink.attempts") == 0 {
		t.Error("no relink.attempts recorded")
	}
}

// listed reports whether lk is on its shard's list of linkers, and leaves the
// list as it was. Under packetdebug, whose lists hold nothing, it reports
// whether lk has been released.
func listed(n *Node, lk *linker) (yes bool) {
	if poolDebug {
		defer func() { yes = recover() != nil }()
		lk.Live(n.sim, "listed")
		return false
	}
	var taken []*linker
	for n.pool.linkers.Len() > 0 && !yes {
		got := n.pool.linkers.Get()
		taken = append(taken, got)
		yes = got == lk
	}
	for i := len(taken) - 1; i >= 0; i-- {
		n.pool.linkers.Put(taken[i], "listed")
	}
	return yes
}

// TestLinkerRecycle: a linker lives on its shard's list. However it ends —
// its link up, given up after its last URI, yielded to the peer's own
// request, told the peer is busy, or its node stopped — finish puts it back,
// and starting the next linker of any node on the shard takes a listed one
// and allocates nothing. The clock stays frozen (zero-latency ring), so each
// ending is the only thing that happens.
func TestLinkerRecycle(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 13, 16)
	// a links toward nodes it holds no link to: one with a smaller address
	// and three with larger ones.
	var a *Node
	var below, above []*Node
	for _, cand := range nodes[1:] {
		a, below, above = cand, nil, nil
		for _, n := range nodes {
			if n == a || a.ConnectionTo(n.Addr()) != nil {
				continue
			}
			if n.addr.Less(a.addr) {
				below = append(below, n)
			} else {
				above = append(above, n)
			}
		}
		if len(below) >= 1 && len(above) >= 3 {
			break
		}
	}
	if len(below) < 1 || len(above) < 3 {
		t.Fatal("no node of the ring has one unlinked node below it and three above")
	}
	start := func(n *Node, target Addr, uris []URI) *linker {
		t.Helper()
		if !poolDebug && n.pool.linkers.Len() == 0 {
			t.Fatal("the shard's list holds no linker before a start; the measurement would be vacuous")
		}
		got := mallocs(func() { n.startLinker(target, uris, StructuredFar) })
		lk := n.linkers[target]
		if lk == nil {
			t.Fatalf("no linker toward %v registered", target)
		}
		if !raceEnabled && !poolDebug && got != 0 {
			t.Errorf("starting a linker toward %v allocates %d objects, want 0", target, got)
		}
		return lk
	}
	// ended checks a linker that ended the way how says, which happened
	// tells: counted, or the node down.
	ended := func(how string, happened bool, n *Node, lk *linker, target Addr) {
		t.Helper()
		if !happened {
			t.Fatalf("%s: the linker did not end that way", how)
		}
		if _, still := n.linkers[target]; still {
			t.Errorf("%s: the linker toward %v is still registered", how, target)
		}
		if !listed(n, lk) {
			t.Errorf("%s: the linker is not back on its shard's list", how)
		}
	}

	b := above[0]
	counted := func(name string) func() bool {
		before := a.Stats.Get(name)
		return func() bool { return a.Stats.Get(name) == before+1 }
	}
	done := counted("link.success")
	lk := start(a, b.Addr(), b.URIs())
	s.RunUntil(s.Now())
	ended("link up", done(), a, lk, b.addr)

	ghost, wrong := AddrFromString("nobody-home"), []URI{above[1].BootstrapURI()}
	done = counted("link.giveup.reject")
	lk = start(a, ghost, wrong) // answered "wrong target": its one URI is refused
	s.RunUntil(s.Now())
	ended("given up", done(), a, lk, ghost)

	// Both ends dial at once and the smaller address wins the race: a,
	// above y, serves y's request and abandons its own.
	y := below[0]
	done = counted("link.race_yield")
	lk = start(a, y.Addr(), y.URIs())
	y.startLinker(a.Addr(), a.URIs(), StructuredFar)
	s.RunUntil(s.Now())
	ended("yielded", done(), a, lk, y.addr)

	c := above[2]
	done = counted("link.uri_exhausted.busy")
	lk = start(a, c.Addr(), c.URIs())
	a.handleLinkError(&linkMsg{From: c.addr, Reply: true, refusal: refuseBusy, Token: lk.token})
	ended("told busy", done(), a, lk, c.addr)
	s.RunUntil(s.Now()) // the request still in flight is answered, and the answer ignored

	lk = start(a, ghost, wrong)
	a.Stop()
	ended("node stopped", !a.Up(), a, lk, ghost)
	start(b, ghost, wrong) // another node of the shard takes it
}

// TestLinkerRecycleStaleStream: a TCP-transport linker dials a stream, and
// when the linker ends before its stream does, the stream is abandoned and
// fails on its own later. Its OnClose then belongs to an object another
// linker has taken from the list since: it must leave that linker alone. A
// linker whose own stream fails, beside it, moves on to its next URI.
func TestLinkerRecycleStaleStream(t *testing.T) {
	r := newOverlayRig(31)
	cfg := FastTestConfig()
	cfg.Transport = "tcp"            // dial TCP URIs first
	cfg.LinkResend = 10 * sim.Minute // no resend while the streams time out
	a := r.addPublic(t, "solo", cfg)
	dead := r.net.AddHost("dead", r.site, r.net.Root(), phys.HostConfig{})
	tcp := URI{Transport: "tcp", EP: phys.Endpoint{IP: dead.IP(), Port: 4001}}
	udp := URI{Transport: "udp", EP: phys.Endpoint{IP: dead.IP(), Port: 4002}}

	live, stale, next := AddrFromString("live"), AddrFromString("stale"), AddrFromString("next")
	a.startLinker(live, []URI{tcp, udp}, Shortcut)
	a.startLinker(stale, []URI{tcp}, Shortcut)
	old := a.linkers[stale]
	// Refused: the linker gives up after its one URI, abandoning the stream.
	a.handleLinkError(&linkMsg{From: AddrFromString("tenant"), Reply: true, refusal: refuseWrongTarget, Token: old.token})
	if _, still := a.linkers[stale]; still {
		t.Fatal("the refused linker is still registered")
	}
	a.startLinker(next, []URI{udp}, Shortcut)
	lk := a.linkers[next]
	if !poolDebug && lk != old {
		t.Fatal("the next linker is not the object the refused one left on the list")
	}
	token := lk.token

	r.s.RunFor(4 * sim.Minute) // both streams' SYNs go unanswered until they time out
	if l := a.linkers[live]; l == nil || l.uriIdx != 1 {
		t.Fatalf("the live linker's stream failure did not move it to its next URI (%+v); the check below would be vacuous", l)
	}
	if a.linkers[next] != lk || lk.token != token || lk.uriIdx != 0 || lk.attempt != 0 || !lk.timer.Active() {
		t.Errorf("a stale stream's close touched the linker holding its object: %+v", lk)
	}
}
