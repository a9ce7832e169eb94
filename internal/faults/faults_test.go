package faults

import (
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

// rig is a two-site, three-host network with packet counting per host.
type rig struct {
	s     *sim.Simulator
	net   *phys.Network
	hosts map[string]*phys.Host
	socks map[string]*phys.UDPSock
	got   map[string]int
}

// dropped reads how many packets the fault labelled label has blackholed.
func dropped(inj *Injector, label string) int64 {
	total := inj.TotalStats()
	return total.Get(label + ".dropped")
}

func statsString(inj *Injector) string {
	total := inj.TotalStats()
	return total.String()
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 15 * sim.Millisecond},
	))
	r := &rig{s: s, net: net,
		hosts: make(map[string]*phys.Host),
		socks: make(map[string]*phys.UDPSock),
		got:   make(map[string]int)}
	siteA := net.AddSite("site-a")
	siteB := net.AddSite("site-b")
	for name, site := range map[string]*phys.Site{"a1": siteA, "a2": siteA, "b1": siteB} {
		h := net.AddHost(name, site, net.Root(), phys.HostConfig{})
		sock, err := h.Listen(7)
		if err != nil {
			t.Fatalf("listen %s: %v", name, err)
		}
		name := name
		sock.OnRecv = func(*phys.Packet) { r.got[name]++ }
		r.hosts[name] = h
		r.socks[name] = sock
	}
	return r
}

func (r *rig) send(from, to string) {
	r.socks[from].Send(phys.Endpoint{IP: r.hosts[to].IP(), Port: 7}, 100, "x")
}

func TestPartitionDropsThenHeals(t *testing.T) {
	r := newRig(t, 1)
	inj := New(r.s, r.net)
	inj.Schedule(Partition{A: AtSites("site-a"), From: sim.Second, For: 10 * sim.Second})

	// Before the window: cross-site traffic flows.
	r.send("a1", "b1")
	r.s.RunFor(500 * sim.Millisecond)
	if r.got["b1"] != 1 {
		t.Fatalf("pre-fault delivery failed: got %d", r.got["b1"])
	}
	// Inside the window: cross-site traffic is blackholed both ways, but
	// same-side traffic is untouched.
	r.s.RunFor(2 * sim.Second)
	r.send("a1", "b1")
	r.send("b1", "a1")
	r.send("a1", "a2")
	r.s.RunFor(sim.Second)
	if r.got["b1"] != 1 || r.got["a1"] != 0 {
		t.Fatalf("partition leaked: b1=%d a1=%d", r.got["b1"], r.got["a1"])
	}
	if r.got["a2"] != 1 {
		t.Fatalf("partition hit same-side traffic: a2=%d", r.got["a2"])
	}
	if dropped(inj, "partition") != 2 {
		t.Fatalf("dropped counter = %d, want 2", dropped(inj, "partition"))
	}
	// After the window: healed.
	r.s.RunFor(10 * sim.Second)
	r.send("a1", "b1")
	r.s.RunFor(sim.Second)
	if r.got["b1"] != 2 {
		t.Fatalf("post-heal delivery failed: got %d", r.got["b1"])
	}
	want := []string{"partition begin", "partition end"}
	tl := inj.Timeline()
	if len(tl) != len(want) {
		t.Fatalf("timeline %v, want %d entries", tl, len(want))
	}
}

func TestBlackholeIsPairwise(t *testing.T) {
	r := newRig(t, 1)
	inj := New(r.s, r.net)
	inj.Schedule(LinkBlackhole{A: On("a1"), B: On("b1"), From: 0, For: time10s()})
	r.s.RunFor(sim.Second)
	r.send("a1", "b1") // blackholed
	r.send("a2", "b1") // third party: unaffected
	r.s.RunFor(sim.Second)
	if r.got["b1"] != 1 {
		t.Fatalf("b1 got %d packets, want only a2's", r.got["b1"])
	}
	if dropped(inj, "blackhole") != 1 {
		t.Fatalf("dropped = %d, want 1", dropped(inj, "blackhole"))
	}
}

func time10s() sim.Duration { return 10 * sim.Second }

func TestLatencyBurstDelaysDelivery(t *testing.T) {
	r := newRig(t, 1)
	inj := New(r.s, r.net)
	inj.Schedule(LatencyBurst{Scope: On("b1"), Extra: 500 * sim.Millisecond, From: 0, For: 10 * sim.Second})
	r.s.RunFor(sim.Second)
	r.send("a1", "b1")
	r.s.RunFor(100 * sim.Millisecond)
	if r.got["b1"] != 0 {
		t.Fatal("packet arrived before inflated latency elapsed")
	}
	r.s.RunFor(sim.Second)
	if r.got["b1"] != 1 {
		t.Fatal("packet never arrived")
	}
}

func TestLossBurstComposesToCertainLoss(t *testing.T) {
	r := newRig(t, 1)
	inj := New(r.s, r.net)
	inj.Schedule(LossBurst{Scope: AtSites("site-b"), Loss: 1.0, From: 0, For: 10 * sim.Second})
	r.s.RunFor(sim.Second)
	for i := 0; i < 5; i++ {
		r.send("a1", "b1")
	}
	r.s.RunFor(sim.Second)
	if r.got["b1"] != 0 {
		t.Fatalf("certain loss leaked %d packets", r.got["b1"])
	}
	if total := r.net.TotalStats(); total.Get("lost.wire") != 5 {
		t.Fatalf("lost.wire = %d, want 5", total.Get("lost.wire"))
	}
}

type fakeNAT struct{ flushes int }

func (f *fakeNAT) Rebind() { f.flushes++ }

// buildScenario schedules one of every fault type against a fresh rig and
// runs it to completion, returning the injector.
func buildScenario(t *testing.T, seed int64) *Injector {
	r := newRig(t, seed)
	inj := New(r.s, r.net)
	nat := &fakeNAT{}
	down := map[string]bool{}
	targets := []ChurnTarget{}
	for _, name := range []string{"a1", "a2", "b1"} {
		name := name
		targets = append(targets, ChurnTarget{
			Name:    name,
			Kill:    func() { down[name] = true },
			Restart: func() { down[name] = false },
		})
	}
	inj.Schedule(
		LinkBlackhole{A: On("a1"), B: On("b1"), From: sim.Second, For: 5 * sim.Second},
		Partition{A: AtSites("site-a"), From: 2 * sim.Second, For: 8 * sim.Second},
		LossBurst{Scope: On("a2"), Loss: 0.5, From: 3 * sim.Second, For: 4 * sim.Second},
		LatencyBurst{Scope: AtSites("site-b"), Extra: 100 * sim.Millisecond, From: sim.Second, For: 6 * sim.Second},
		NATFlush{NAT: nat, At: 4 * sim.Second},
		CrashRestart{Name: "crash.b1", At: 5 * sim.Second, Down: 3 * sim.Second,
			Kill: func() { down["b1"] = true }, Restart: func() { down["b1"] = false }},
		ChurnWave{Targets: targets, From: 10 * sim.Second, Spacing: 2 * sim.Second,
			Jitter: sim.Second, Down: 4 * sim.Second},
	)
	// Background traffic so loss faults consume random draws too.
	for i := 0; i < 30; i++ {
		at := sim.Duration(i) * 700 * sim.Millisecond
		r.s.After(at, func() { r.send("a1", "b1"); r.send("a2", "b1") })
	}
	r.s.RunFor(40 * sim.Second)
	if nat.flushes != 1 {
		t.Fatalf("nat flushed %d times, want 1", nat.flushes)
	}
	return inj
}

// TestDeterministicTimeline is the acceptance criterion: two runs of an
// identical scenario under the same seed produce identical fault timelines
// and identical per-fault counters.
func TestDeterministicTimeline(t *testing.T) {
	a := buildScenario(t, 42)
	b := buildScenario(t, 42)
	if a.TimelineString() != b.TimelineString() {
		t.Fatalf("timelines diverged:\n--- run 1\n%s--- run 2\n%s", a.TimelineString(), b.TimelineString())
	}
	if a.TimelineString() == "" {
		t.Fatal("empty timeline")
	}
	if statsString(a) != statsString(b) {
		t.Fatalf("counters diverged:\n--- run 1\n%s\n--- run 2\n%s", statsString(a), statsString(b))
	}
	// A different seed must still run the same faults (labels), just with
	// jittered churn times.
	c := buildScenario(t, 7)
	if len(c.Timeline()) != len(a.Timeline()) {
		t.Fatalf("event counts differ across seeds: %d vs %d", len(c.Timeline()), len(a.Timeline()))
	}
}
