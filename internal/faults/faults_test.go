package faults

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

// On is shorthand for a host-name scope.
func On(hosts ...string) Scope { return Scope{Hosts: hosts} }

// rig is a two-site, three-host network with packet counting per host.
type rig struct {
	s     *sim.Simulator
	net   *phys.Network
	hosts map[string]*phys.Host
	socks map[string]*phys.UDPSock
	got   map[string]int
}

// dropped reads how many packets the injector's network has blackholed:
// phys counts each as lost.fault. A test that reads it arms one wire fault.
func dropped(inj *Injector) int64 {
	total := inj.Net.TotalStats()
	return total.Get("lost.fault")
}

// statsString renders what a run leaves observable: the network's counters
// and the fault timeline.
func statsString(inj *Injector) string {
	total := inj.Net.TotalStats()
	return total.String() + "\n" + inj.TimelineString()
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
	if dropped(inj) != 2 {
		t.Fatalf("dropped counter = %d, want 2", dropped(inj))
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
		LinkFlap{A: On("a1"), B: On("b1"), Period: 2 * sim.Second, Up: sim.Second, Start: sim.Second, For: 5 * sim.Second},
		Partition{A: AtSites("site-a"), From: 2 * sim.Second, For: 8 * sim.Second},
		JitterBurst{Scope: On("a2"), Amp: 50 * sim.Millisecond, Start: 3 * sim.Second, For: 4 * sim.Second, Seed: 1},
		LatencyBurst{Scope: AtSites("site-b"), Extra: 100 * sim.Millisecond, From: sim.Second, For: 6 * sim.Second},
		NATFlush{NAT: nat, At: 4 * sim.Second},
		CrashRestart{Name: "crash.b1", At: 5 * sim.Second, Down: 3 * sim.Second,
			Kill: func() { down["b1"] = true }, Restart: func() { down["b1"] = false }},
		ChurnWave{Targets: targets, From: 10 * sim.Second, Spacing: 2 * sim.Second,
			Jitter: sim.Second, Down: 4 * sim.Second},
	)
	// Background traffic for the wire faults to act on.
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
// and identical network counters.
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

// TestWireFaultsSharded runs four wire faults one after another over steady
// two-way traffic between two sites, on one shard and on two
// shards with one and with two workers. Every run must deliver the same
// packets at the same instants, lose the same ones for the same reasons and
// record the same timeline. With two workers under -race it also holds the
// injector to its rule: no rule changes while shards execute.
func TestWireFaultsSharded(t *testing.T) {
	type result struct {
		arrivals [2][]sim.Time
		counts   string
		timeline string
	}
	run := func(k, workers int) result {
		eng := sim.NewSharded(1, k, workers)
		defer eng.Close()
		net := phys.NewShardedNetwork(eng, phys.UniformLatency(
			phys.PathModel{OneWay: sim.Millisecond},
			phys.PathModel{OneWay: 15 * sim.Millisecond},
		))
		var res result
		hosts := [2]*phys.Host{
			net.AddHost("a1", net.AddSite("site-a"), net.Root(), phys.HostConfig{}),
			net.AddHost("b1", net.AddSite("site-b"), net.Root(), phys.HostConfig{}),
		}
		if floor, ok := net.CrossShardFloor(); ok {
			eng.SetLookahead(floor)
		}
		if hosts[0].Shard() != 0 || hosts[1].Shard() != k-1 {
			t.Fatalf("K=%d: hosts on shards %d, %d", k, hosts[0].Shard(), hosts[1].Shard())
		}
		var socks [2]*phys.UDPSock
		for i, h := range hosts {
			i, h := i, h
			sock, err := h.Listen(7)
			if err != nil {
				t.Fatal(err)
			}
			sock.OnRecv = func(*phys.Packet) { res.arrivals[i] = append(res.arrivals[i], h.Sim().Now()) }
			socks[i] = sock
		}
		// Each host sends to the other every 10 ms for 10 s, on its own
		// shard, halfway between fault edges: every lookahead window of
		// the two-shard engine has sends on both shards.
		for i, h := range hosts {
			i := i
			peer := phys.Endpoint{IP: hosts[1-i].IP(), Port: 7}
			for n := 0; n < 1000; n++ {
				at := sim.Time(0).Add(sim.Duration(n)*10*sim.Millisecond + 5*sim.Millisecond)
				h.Sim().At(at, func() { socks[i].Send(peer, 100, "x") })
			}
		}
		inj := New(eng.Shard(0), net)
		defer inj.Close()
		inj.Schedule(
			Partition{A: AtSites("site-a"), From: sim.Second, For: sim.Second},
			LinkFlap{A: On("a1"), B: On("b1"), Period: 200 * sim.Millisecond, Up: 100 * sim.Millisecond,
				Start: 3 * sim.Second, For: sim.Second},
			JitterBurst{Scope: On("b1"), Amp: 20 * sim.Millisecond, Start: 5 * sim.Second, For: sim.Second, Seed: 1},
			LatencyBurst{Scope: On("b1"), Extra: 200 * sim.Millisecond, From: 7 * sim.Second, For: sim.Second},
		)
		eng.RunFor(11 * sim.Second)
		total := net.TotalStats()
		for _, name := range total.Names() {
			if name == "delivered" || strings.HasPrefix(name, "lost.") {
				res.counts += fmt.Sprintf("%s=%d ", name, total.Get(name))
			}
		}
		res.timeline = inj.TimelineString()
		return res
	}

	one := run(1, 1)
	// Each fault covers a hundred sends each way; the partition drops
	// them all, the flap the half sent in its down phases, and the two
	// bursts only delay theirs.
	if want := "delivered=1700 lost.fault=300 "; one.counts != want {
		t.Fatalf("one shard: counts %q, want %q", one.counts, want)
	}
	if strings.Count(one.timeline, "\n") != 8 {
		t.Fatalf("one shard: timeline\n%s want a begin and an end per fault", one.timeline)
	}
	for _, workers := range []int{2, 1} {
		got := run(2, workers)
		if got.counts != one.counts || got.timeline != one.timeline {
			t.Fatalf("K=2 workers=%d: counts %q timeline\n%s want counts %q timeline\n%s",
				workers, got.counts, got.timeline, one.counts, one.timeline)
		}
		for i := range got.arrivals {
			if !slices.Equal(got.arrivals[i], one.arrivals[i]) {
				t.Fatalf("K=2 workers=%d: host %d arrivals %v, want %v", workers, i, got.arrivals[i], one.arrivals[i])
			}
		}
	}
}
