package phys

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"wow/internal/sim"
)

// buildShardedPair stands up a two-shard network with one host per shard
// and a reply-on-receive protocol: host a fires `count` datagrams at b,
// b answers each, and both sides log (now, size) on delivery.
func runShardedPingPong(t *testing.T, workers, count int) (logA, logB []sim.Time, stats string, events uint64) {
	t.Helper()
	eng := sim.NewSharded(42, 2, workers)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 20 * sim.Millisecond, Jitter: 5 * sim.Millisecond},
	))
	siteA := net.AddSite("a") // shard 0
	siteB := net.AddSite("b") // shard 1
	if siteA.Shard() == siteB.Shard() {
		t.Fatal("sites landed on one shard")
	}
	floor, ok := net.CrossShardFloor()
	if !ok {
		t.Fatal("no cross-shard site pairs")
	}
	if want := 15 * sim.Millisecond; floor != want {
		t.Fatalf("CrossShardFloor = %v, want %v", floor, want)
	}
	eng.SetLookahead(floor)

	a := net.AddHost("a0", siteA, net.Root(), HostConfig{})
	b := net.AddHost("b0", siteB, net.Root(), HostConfig{})
	if a.Shard() != 0 || b.Shard() != 1 {
		t.Fatalf("host shards = %d,%d", a.Shard(), b.Shard())
	}
	as, err := a.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := b.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	bs.OnRecv = func(p *Packet) {
		logB = append(logB, b.Sim().Now())
		bs.Send(p.Src, 16, "pong")
	}
	as.OnRecv = func(p *Packet) { logA = append(logA, a.Sim().Now()) }
	for i := 0; i < count; i++ {
		at := sim.Time(i) * sim.Time(3*sim.Millisecond)
		eng.Shard(0).At(at, func() { as.Send(Endpoint{IP: b.IP(), Port: 100}, 32, "ping") })
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	total := net.TotalStats()
	return logA, logB, total.String(), eng.Processed()
}

// TestShardedNetworkDeliversAcrossShards checks end-to-end cross-shard
// delivery and that the trace is identical no matter how many workers
// execute it.
func TestShardedNetworkDeliversAcrossShards(t *testing.T) {
	const count = 40
	a1, b1, s1, e1 := runShardedPingPong(t, 1, count)
	if len(b1) != count || len(a1) != count {
		t.Fatalf("delivered %d pings / %d pongs, want %d each; stats: %s", len(b1), len(a1), count, s1)
	}
	a2, b2, s2, e2 := runShardedPingPong(t, 2, count)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("delivery trace depends on worker count")
	}
	if s1 != s2 || e1 != e2 {
		t.Fatalf("stats/event totals depend on worker count: %q/%d vs %q/%d", s1, e1, s2, e2)
	}
}

// TestShardedRealmPinning: private realms are shard-affine. A chain is
// unpinned until its first host, the first AddHost anywhere in the chain
// pins the whole chain (top realm and nested realms both ways), realms
// added to a pinned chain inherit the pin, and a host at a different site
// is rejected.
func TestShardedRealmPinning(t *testing.T) {
	eng := sim.NewSharded(1, 2, 1)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(PathModel{}, PathModel{OneWay: sim.Millisecond}))
	s0 := net.AddSite("s0") // shard 0
	s1 := net.AddSite("s1") // shard 1

	nat := &fakeNAT{public: net.Root().NextIP()}
	lan := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.0.0.1"))
	inner := net.AddRealm("inner", lan, &fakeNAT{public: MustParseIP("10.0.0.200")}, MustParseIP("192.168.0.1"))
	if lan.site != nil || inner.site != nil {
		t.Fatal("realms pinned before any host")
	}
	// First host lands in the NESTED realm: the pin must climb to the chain
	// top and cover every realm of the chain.
	net.AddHost("deep", s1, inner, HostConfig{})
	if lan.site != s1 || inner.site != s1 {
		t.Fatalf("chain not pinned to s1: lan=%v inner=%v", lan.site, inner.site)
	}
	if lan.shard() != s1.Shard() || inner.shard() != s1.Shard() {
		t.Fatalf("chain shards = %d,%d, want %d", lan.shard(), inner.shard(), s1.Shard())
	}
	// A realm attached to a pinned chain inherits the pin immediately.
	late := net.AddRealm("late", lan, &fakeNAT{public: MustParseIP("10.0.0.201")}, MustParseIP("172.16.0.1"))
	if late.site != s1 {
		t.Fatalf("late realm did not inherit pin: %v", late.site)
	}
	// Same-site hosts are fine anywhere in the chain.
	net.AddHost("peer", s1, lan, HostConfig{})
	// A host at another site must panic: one middlebox fronts one location.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddHost at a different site than the chain pin must panic")
			}
		}()
		net.AddHost("stray", s0, lan, HostConfig{})
	}()
	// The root realm never pins.
	net.AddHost("pub", s0, net.Root(), HostConfig{})
	if net.Root().site != nil || net.Root().shard() != 0 {
		t.Fatal("root realm must stay unpinned")
	}
}

// runShardedNATExchange drives a NATed host (shard 1) pinging a public
// host (shard 0) and back: outbound translation happens on the sender's
// shard, the replies are boundary-deferred to the realm's owning shard.
func runShardedNATExchange(t *testing.T, workers, count int) (logIn, logOut []sim.Time, stats string, events uint64) {
	t.Helper()
	eng := sim.NewSharded(7, 2, workers)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 20 * sim.Millisecond, Jitter: 5 * sim.Millisecond},
	))
	pubSite := net.AddSite("pub") // shard 0
	lanSite := net.AddSite("lan") // shard 1
	floor, ok := net.CrossShardFloor()
	if !ok {
		t.Fatal("no cross-shard site pairs")
	}
	eng.SetLookahead(floor)

	pub := net.AddHost("pub", pubSite, net.Root(), HostConfig{})
	nat := &fakeNAT{public: net.Root().NextIP()}
	lan := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.0.0.1"))
	inside := net.AddHost("inside", lanSite, lan, HostConfig{})
	if lan.shard() != 1 {
		t.Fatalf("lan realm on shard %d, want 1", lan.shard())
	}

	ps, err := pub.Listen(200)
	if err != nil {
		t.Fatal(err)
	}
	is, err := inside.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	ps.OnRecv = func(p *Packet) {
		if p.Src.IP != nat.public {
			t.Errorf("public host saw untranslated source %v", p.Src)
		}
		logOut = append(logOut, pub.Sim().Now())
		ps.Send(p.Src, 16, "pong")
	}
	is.OnRecv = func(p *Packet) {
		if p.Dst.IP != inside.IP() {
			t.Errorf("inbound translation missed: dst %v", p.Dst)
		}
		logIn = append(logIn, inside.Sim().Now())
	}
	for i := 0; i < count; i++ {
		at := sim.Time(i) * sim.Time(3*sim.Millisecond)
		eng.Shard(1).At(at, func() { is.Send(Endpoint{IP: pub.IP(), Port: 200}, 32, "ping") })
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	total := net.TotalStats()
	if got := total.Get("boundary.out"); got != int64(count) {
		t.Fatalf("boundary.out = %d, want %d", got, count)
	}
	if got := total.Get("boundary.in"); got != int64(count) {
		t.Fatalf("boundary.in = %d, want %d", got, count)
	}
	return logIn, logOut, total.String(), eng.Processed()
}

// TestShardedNATBoundaryDelivery: a NAT behind the parallel engine
// translates in both directions across shards, counts translations on the
// owning shard, and the whole trace is worker-invariant.
func TestShardedNATBoundaryDelivery(t *testing.T) {
	const count = 40
	in1, out1, s1, e1 := runShardedNATExchange(t, 1, count)
	if len(out1) != count || len(in1) != count {
		t.Fatalf("delivered %d pings / %d pongs, want %d each; stats: %s", len(out1), len(in1), count, s1)
	}
	in2, out2, s2, e2 := runShardedNATExchange(t, 2, count)
	if !reflect.DeepEqual(in1, in2) || !reflect.DeepEqual(out1, out2) {
		t.Fatal("NAT delivery trace depends on worker count")
	}
	if s1 != s2 || e1 != e2 {
		t.Fatalf("stats/event totals depend on worker count: %q/%d vs %q/%d", s1, e1, s2, e2)
	}
}

// TestShardedUnpinnedRealmUnroutable: an address claimed by a boundary
// with no hosts behind it has no owning shard and no possible receiver —
// the packet drops as lost.noroute instead of crashing the engine.
func TestShardedUnpinnedRealmUnroutable(t *testing.T) {
	eng := sim.NewSharded(3, 2, 1)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 10 * sim.Millisecond},
	))
	pubSite := net.AddSite("pub")
	net.AddSite("other")
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)
	pub := net.AddHost("pub", pubSite, net.Root(), HostConfig{})
	nat := &fakeNAT{public: net.Root().NextIP()}
	net.AddRealm("empty", net.Root(), nat, MustParseIP("10.0.0.1"))

	s, _ := pub.Listen(0)
	eng.Shard(0).At(0, func() { s.Send(Endpoint{IP: nat.public, Port: 77}, 8, "x") })
	eng.RunUntil(sim.Time(sim.Second))
	total := net.TotalStats()
	if got := total.Get("lost.noroute"); got != 1 {
		t.Fatalf("lost.noroute = %d, want 1", got)
	}
}

// TestShardedConnIDsUniqueAcrossRealms: hosts in different private realms
// reuse the same RFC1918 addresses, and the listener side demultiplexes
// streams by connection ID alone — so IDs derived from the dialer's IP
// would collide and hijack each other's streams. The allocator counts per
// shard under the shard's index: dialers on one shard and on two all differ,
// and shard 0 — all of a one-shard network — counts 1, 2, 3, … (a streamSyn
// with so small an ID boxes without allocating, and the golden traces were
// pinned on that sequence).
func TestShardedConnIDsUniqueAcrossRealms(t *testing.T) {
	eng := sim.NewSharded(11, 2, 2)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 20 * sim.Millisecond, Jitter: 5 * sim.Millisecond},
	))
	pubSite := net.AddSite("pub") // shard 0
	lanSite1 := net.AddSite("l1") // shard 1
	lanSite2 := net.AddSite("l2") // shard 0
	lanSite3 := net.AddSite("l3") // shard 1
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)

	pub := net.AddHost("pub", pubSite, net.Root(), HostConfig{})
	var dialers []*Host
	for i, site := range []*Site{lanSite1, lanSite2, lanSite3} {
		nat := &fakeNAT{public: net.Root().NextIP()}
		lan := net.AddRealm(fmt.Sprintf("lan%d", i), net.Root(), nat, MustParseIP("10.0.0.1"))
		dialers = append(dialers, net.AddHost(fmt.Sprintf("h%d", i), site, lan, HostConfig{}))
	}
	if a, b, c := dialers[0], dialers[1], dialers[2]; a.IP() != b.IP() || a.IP() != c.IP() || a.Shard() != c.Shard() || a.Shard() == b.Shard() {
		t.Fatalf("want colliding private IPs, two dialers on one shard and one on the other; got %v/%d %v/%d %v/%d",
			a.IP(), a.Shard(), b.IP(), b.Shard(), c.IP(), c.Shard())
	}

	ids := map[uint64]bool{}
	msgs := 0
	pub.ListenStream(7000, func(st *Stream) {
		ids[st.connID] = true
		st.OnMessage(func(size int, payload any) { msgs++ })
	})
	for _, h := range dialers {
		h := h
		h.Sim().At(0, func() { h.DialStream(Endpoint{IP: pub.IP(), Port: 7000}).SendMsg(64, "from-"+h.Name) })
	}
	eng.RunUntil(sim.Time(10 * sim.Second))
	if len(ids) != 3 || msgs != 3 {
		t.Fatalf("accepted %d distinct conn IDs (%v), delivered %d messages, want 3/3", len(ids), ids, msgs)
	}

	s := sim.New(1)
	serial := NewNetwork(s, UniformLatency(PathModel{}, PathModel{}))
	h := serial.AddHost("h", serial.AddSite("x"), serial.Root(), HostConfig{})
	for want := uint64(1); want <= 3; want++ {
		if got := h.DialStream(Endpoint{IP: h.IP(), Port: 9}).connID; got != want {
			t.Fatalf("dial %d on a one-shard network got conn ID %#x", want, got)
		}
	}
}

// TestUnshardedStatsUnchanged: TotalStats is the one reader of a network's
// counters, and on a serial network it sees every live one — the cells the
// hot paths hold handles to (delivered, boundary.in, boundary.out) and the
// ones a drop finds by name.
func TestUnshardedStatsUnchanged(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, UniformLatency(PathModel{}, PathModel{}))
	site := net.AddSite("x")
	a := net.AddHost("a", site, net.Root(), HostConfig{})
	b := net.AddHost("b", site, net.Root(), HostConfig{})
	down := net.AddHost("down", site, net.Root(), HostConfig{})
	down.SetUp(false)
	nat := &fakeNAT{public: net.Root().NextIP()}
	lan := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.0.0.1"))
	in := net.AddHost("in", site, lan, HostConfig{})
	net.Perturb = func(src, dst *Host, pm PathModel) (PathModel, bool) {
		if dst == b && src == in {
			pm.Loss = 1
		}
		return pm, src == b && dst == a
	}

	bs, _ := b.Listen(7)
	bs.OnRecv = func(p *Packet) { bs.Send(p.Src, 8, "echo") }
	as, _ := a.Listen(8)
	is, _ := in.Listen(8)
	as.Send(Endpoint{IP: b.IP(), Port: 7}, 8, "delivered; the echo is blackholed")
	as.Send(Endpoint{IP: b.IP(), Port: 9}, 8, "no such port")
	as.Send(Endpoint{IP: down.IP(), Port: 7}, 8, "host down")
	as.Send(Endpoint{IP: b.IP() + 100, Port: 7}, 8, "no route")
	as.Send(Endpoint{IP: nat.public, Port: 1}, 8, "no mapping")
	is.Send(Endpoint{IP: b.IP(), Port: 7}, 8, "translated, then lost on the wire")
	is.Send(Endpoint{IP: a.IP(), Port: 8}, 8, "translated and delivered")
	as.Send(Endpoint{IP: nat.public, Port: 2000}, 8, "translated back in")
	s.Run()
	const want = "boundary.in=1 boundary.out=2 delivered=3 lost.boundary=1 lost.fault=1 lost.hostdown=1 lost.noport=1 lost.noroute=1 lost.wire=1"
	if got := statsString(net); got != want {
		t.Fatalf("TotalStats = %q\nwant        %q", got, want)
	}
}

// TestTotalStatsConcurrentShardWrites: the per-shard stats counters obey
// the same ownership rule as the engine — each shard's goroutine bumps
// only its own Counter's map cells and its own state's delivered count —
// and TotalStats merges them exactly. Run under -race this also proves
// the hot-path counters introduce no cross-shard write sharing.
func TestTotalStatsConcurrentShardWrites(t *testing.T) {
	const shards, perShard = 4, 5000
	eng := sim.NewSharded(7, shards, 1)
	defer eng.Close()
	net := NewShardedNetwork(eng, UniformLatency(PathModel{}, PathModel{}))
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perShard; j++ {
				net.shards[i].delivered++
				net.stats.Shard(i).Inc("lost.wire", 1)
			}
		}()
	}
	wg.Wait()
	total := net.TotalStats()
	if got := total.Get("delivered"); got != shards*perShard {
		t.Errorf("delivered = %d, want %d", got, shards*perShard)
	}
	if got := total.Get("lost.wire"); got != shards*perShard {
		t.Errorf("lost.wire = %d, want %d", got, shards*perShard)
	}
}
