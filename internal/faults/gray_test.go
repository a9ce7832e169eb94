package faults

import (
	"testing"

	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
)

// TestCloseMakesScheduledEventsNoOps is the Close-audit regression: fault
// events already sitting on the simulator when the injector closes —
// window begins and ends, crash kills, restarts, NAT flushes — must all
// become no-ops instead of firing into the detached network.
func TestCloseMakesScheduledEventsNoOps(t *testing.T) {
	r := newRig(t, 1)
	inj := New(r.s, r.net)
	nat := &fakeNAT{}
	killed, restarted := false, false
	inj.Schedule(
		Partition{A: AtSites("site-a"), From: sim.Second, For: 10 * sim.Second},
		CrashRestart{At: 2 * sim.Second, Down: 3 * sim.Second,
			Kill: func() { killed = true }, Restart: func() { restarted = true }},
		NATFlush{NAT: nat, At: 3 * sim.Second},
	)
	r.s.RunFor(500 * sim.Millisecond)
	inj.Close()
	r.s.RunFor(30 * sim.Second)

	if killed || restarted {
		t.Fatalf("crash fired after Close: killed=%v restarted=%v", killed, restarted)
	}
	if nat.flushes != 0 {
		t.Fatalf("NAT flushed %d times after Close", nat.flushes)
	}
	if tl := inj.Timeline(); len(tl) != 0 {
		t.Fatalf("timeline gained entries after Close: %v", tl)
	}
	// Close removed the partition's rule before its window opened: traffic
	// flows.
	r.send("a1", "b1")
	r.s.RunFor(sim.Second)
	if r.got["b1"] != 1 {
		t.Fatalf("closed injector still drops traffic: b1=%d", r.got["b1"])
	}
}

// A restart timer armed inside an already-fired kill event must also
// no-op when Close lands between kill and restart.
func TestCloseBetweenKillAndRestart(t *testing.T) {
	r := newRig(t, 1)
	inj := New(r.s, r.net)
	killed, restarted := false, false
	inj.Schedule(CrashRestart{At: sim.Second, Down: 10 * sim.Second,
		Kill: func() { killed = true }, Restart: func() { restarted = true }})
	r.s.RunFor(2 * sim.Second)
	if !killed {
		t.Fatal("kill never fired")
	}
	inj.Close()
	r.s.RunFor(30 * sim.Second)
	if restarted {
		t.Fatal("restart fired after Close")
	}
	// The kill is recorded (it happened); the restart is not.
	if tl := inj.Timeline(); len(tl) != 1 || tl[0].Event != "kill" {
		t.Fatalf("timeline = %v, want exactly the kill", tl)
	}
}

// Closing mid-window must freeze the timeline (no end event) and stop the
// rule from dropping anything further.
func TestCloseMidWindow(t *testing.T) {
	r := newRig(t, 1)
	inj := New(r.s, r.net)
	inj.Schedule(Partition{A: AtSites("site-a"), From: 0, For: 10 * sim.Second})
	r.s.RunFor(2 * sim.Second) // begin fired, rule active
	inj.Close()
	r.send("a1", "b1")
	r.s.RunFor(20 * sim.Second) // end event fires and must no-op
	if r.got["b1"] != 1 {
		t.Fatalf("rule still active after Close: b1=%d", r.got["b1"])
	}
	want := "t=0.000s partition begin\n"
	if got := inj.TimelineString(); got != want {
		t.Fatalf("timeline after Close = %q, want %q", got, want)
	}
}

// A host behind a NAT is no safer from an injected fault on an engine-driven
// network than on a serial one: the NAT's chain lives on the sender's shard,
// so the sender translates at send time, the hook sees the host the packet
// ends at, and the packet is counted lost.fault. (Deferred to the chain's
// arrival, as every engine-driven NAT descent once was, the push below was
// delivered straight through the partition.)
func TestBlackholeReachesNATedHostOnEngine(t *testing.T) {
	eng := sim.NewSharded(1, 1, 1)
	defer eng.Close()
	net := phys.NewShardedNetwork(eng, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 15 * sim.Millisecond},
	))
	server := net.AddHost("server", net.AddSite("pub"), net.Root(), phys.HostConfig{})
	nat := natsim.NewNAT("nat", natsim.Config{Type: natsim.FullCone}, net.Root().NextIP(), eng.Shard(0).Now)
	lan := net.AddRealm("lan", net.Root(), nat, phys.MustParseIP("10.0.0.1"))
	inside := net.AddHost("inside", net.AddSite("lan"), lan, phys.HostConfig{})

	echo, _ := server.Listen(7)
	var mapped phys.Endpoint // inside's mapping on the NAT
	echo.OnRecv = func(p *phys.Packet) { mapped = p.Src; echo.Send(p.Src, 100, "echo") }
	sock, _ := inside.Listen(7)
	got := 0
	sock.OnRecv = func(*phys.Packet) { got++ }
	ping := func() { sock.Send(phys.Endpoint{IP: server.IP(), Port: 7}, 100, "ping") }

	inj := New(eng.Shard(0), net)
	inj.Schedule(Partition{A: On("inside"), From: sim.Second, For: 10 * sim.Second})
	ping()
	eng.RunFor(sim.Second)
	if got != 1 {
		t.Fatalf("before the window: %d echoes, want 1", got)
	}
	// Inside the window the server writes to the mapping: the packet is
	// addressed to the NAT, and only the descent names inside as its end.
	echo.Send(mapped, 100, "push")
	eng.RunFor(sim.Second)
	if got != 1 || dropped(inj) != 1 {
		total := net.TotalStats()
		t.Fatalf("inside the window: %d packets, lost.fault=%d; want the push dropped (stats %s)",
			got, dropped(inj), total.String())
	}
}

// JitterBurst delays within [0, 2·Amp) beyond the base path latency, and
// identically across runs. Each packet carries its own send time so the
// check survives jitter-induced reordering.
func TestJitterBurstBoundedAndDeterministic(t *testing.T) {
	const amp = sim.Second
	extras := func() map[sim.Time]sim.Duration {
		r := newRig(t, 1)
		inj := New(r.s, r.net)
		inj.Schedule(JitterBurst{Scope: AtSites("site-b"), Amp: amp, Start: 0, For: 30 * sim.Second})
		got := make(map[sim.Time]sim.Duration)
		r.socks["b1"].OnRecv = func(p *phys.Packet) {
			sentAt := p.Payload.(sim.Time)
			got[sentAt] = r.s.Now().Sub(sentAt) - 15*sim.Millisecond
		}
		for i := 0; i < 8; i++ {
			at := sim.Duration(i+1) * 700 * sim.Millisecond
			r.s.After(at, func() {
				r.socks["a1"].Send(phys.Endpoint{IP: r.hosts["b1"].IP(), Port: 7}, 100, r.s.Now())
			})
		}
		r.s.RunFor(35 * sim.Second)
		if len(got) != 8 {
			t.Fatalf("jitter dropped packets: %d/8 arrived", len(got))
		}
		spread := false
		for sentAt, extra := range got {
			if extra < 0 || extra >= 2*amp {
				t.Fatalf("packet sent %v: extra delay %v outside [0, 2s)", sentAt, extra)
			}
			if extra != got[sim.Time(0).Add(700*sim.Millisecond)] {
				spread = true
			}
		}
		if !spread {
			t.Fatal("every packet drew the same jitter; pattern is degenerate")
		}
		return got
	}
	a, b := extras(), extras()
	for sentAt, extra := range a {
		if b[sentAt] != extra {
			t.Fatalf("jitter not deterministic: packet at %v delayed %v then %v", sentAt, extra, b[sentAt])
		}
	}
}

// LinkFlap's duty cycle: up for Up, down for the rest of each Period,
// phase-anchored at the window start.
func TestLinkFlapDutyCycle(t *testing.T) {
	r := newRig(t, 1)
	inj := New(r.s, r.net)
	inj.Schedule(LinkFlap{A: On("a1"), B: On("b1"),
		Period: 4 * sim.Second, Up: 2 * sim.Second, Start: 0, For: 20 * sim.Second})
	// Phase within each 4s period: [0,2s) up, [2s,4s) down.
	for _, at := range []sim.Duration{
		500 * sim.Millisecond, // up
		3 * sim.Second,        // down
		5 * sim.Second,        // up again (second period)
		7 * sim.Second,        // down again
	} {
		r.s.After(at, func() { r.send("a1", "b1") })
	}
	for _, want := range []int{1, 1, 2, 2} {
		r.s.RunFor(2 * sim.Second)
		if r.got["b1"] != want {
			t.Fatalf("at %v: b1=%d, want %d", r.s.Now(), r.got["b1"], want)
		}
	}
	if dropped(inj) != 2 {
		t.Fatalf("lost.fault = %d, want 2", dropped(inj))
	}
	// Third parties never flap.
	r.send("a2", "b1")
	r.s.RunFor(sim.Second)
	if r.got["b1"] != 3 {
		t.Fatal("flap hit third-party traffic")
	}
}

// Gray faults compose with a crisp wire fault and a process fault and stay
// deterministic: two seeded runs produce identical timelines and network
// counters.
func TestGrayCompositionDeterministic(t *testing.T) {
	run := func() *Injector {
		r := newRig(t, 9)
		inj := New(r.s, r.net)
		inj.Schedule(
			JitterBurst{Scope: AtSites("site-a"), Amp: 200 * sim.Millisecond, Start: sim.Second, For: 20 * sim.Second},
			LinkFlap{A: AtSites("site-a"), Period: 5 * sim.Second, Up: 3 * sim.Second, Start: 2 * sim.Second, For: 15 * sim.Second},
			Partition{A: On("b1"), B: On("a2"), From: 3 * sim.Second, For: 5 * sim.Second},
			CrashRestart{At: 4 * sim.Second, Down: 6 * sim.Second,
				Kill: func() { r.hosts["a1"].SetUp(false) }, Restart: func() { r.hosts["a1"].SetUp(true) }},
		)
		for i := 0; i < 40; i++ {
			at := sim.Duration(i) * 600 * sim.Millisecond
			r.s.After(at, func() { r.send("a1", "b1"); r.send("b1", "a2"); r.send("a2", "a1") })
		}
		r.s.RunFor(30 * sim.Second)
		return inj
	}
	a, b := run(), run()
	if a.TimelineString() != b.TimelineString() || a.TimelineString() == "" {
		t.Fatalf("gray timelines diverged:\n--- run 1\n%s--- run 2\n%s", a.TimelineString(), b.TimelineString())
	}
	if statsString(a) != statsString(b) {
		t.Fatalf("gray counters diverged:\n%s\nvs\n%s", statsString(a), statsString(b))
	}
}
