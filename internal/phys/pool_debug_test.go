//go:build packetdebug

package phys

import (
	"strings"
	"testing"

	"wow/internal/sim"
)

func debugNet() (*sim.Simulator, *Network) {
	s := sim.New(1)
	return s, NewNetwork(s, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: sim.Millisecond},
	))
}

// shardedDebugNet is a network on a k-shard engine, one worker.
func shardedDebugNet(t *testing.T, k int) (*sim.Sharded, *Network) {
	eng := sim.NewSharded(7, k, 1)
	t.Cleanup(eng.Close)
	return eng, NewShardedNetwork(eng, UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 20 * sim.Millisecond},
	))
}

// mustPanic runs f and checks that it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", r, want)
		}
	}()
	f()
}

// Double release panics under the debug pool.
func TestPacketDebugDoubleRelease(t *testing.T) {
	_, net := debugNet()
	p := net.shards[0].pkts.Get()
	net.shards[0].pkts.Put(p, "finishReceive")
	mustPanic(t, "double release", func() { net.shards[0].pkts.Put(p, "drop") })
}

// A released packet re-entering the delivery pipeline panics.
func TestPacketDebugUseAfterRelease(t *testing.T) {
	_, net := debugNet()
	site := net.AddSite("site")
	h := net.AddHost("h", site, net.Root(), HostConfig{})
	p := net.shards[0].pkts.Get()
	p.Src = Endpoint{IP: h.IP(), Port: 1}
	p.Dst = Endpoint{IP: h.IP(), Port: 2}
	net.shards[0].pkts.Put(p, "drop")
	mustPanic(t, "use of released packet", func() { net.send(h, p) })
}

// Cross-shard pool misuse: releasing a packet on a shard that does not
// own it panics, and so does releasing it twice from different shards —
// the single-owner rule packets obey when they migrate between shard
// free lists through the engine.
func TestPacketDebugCrossShardRelease(t *testing.T) {
	_, net := shardedDebugNet(t, 4)
	p := net.shards[0].pkts.Get()
	mustPanic(t, "cross-shard release", func() { net.shards[1].pkts.Put(p, "drop") })

	q := net.shards[2].pkts.Get()
	sim.HandOff(q, net.sims[3]) // legal hand-off: ownership moves to shard 3
	mustPanic(t, "cross-shard release", func() { net.shards[2].pkts.Put(q, "drop") })
	net.shards[3].pkts.Put(q, "drop") // owner releases fine
	mustPanic(t, "double release", func() { net.shards[3].pkts.Put(q, "drop") })
}

// A shard touching a live packet it does not own panics at the pipeline
// checkpoints.
func TestPacketDebugCrossShardUse(t *testing.T) {
	_, net := shardedDebugNet(t, 2)
	p := net.shards[1].pkts.Get()
	mustPanic(t, "owned by shard 1", func() { p.Live(net.sims[0], "send") })
	p.Live(net.sims[1], "send") // owner passes
}

// A boundary-deferred packet crossing shards is re-stamped to the realm's
// owning shard before the inbound NAT descent runs there: the receiver
// behind the boundary sees a packet owned by its own shard, so the
// single-owner pool rule holds across realm boundaries too.
func TestPacketDebugBoundaryRestamp(t *testing.T) {
	eng, net := shardedDebugNet(t, 2)
	pubSite := net.AddSite("pub") // shard 0
	lanSite := net.AddSite("lan") // shard 1
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)
	pub := net.AddHost("pub", pubSite, net.Root(), HostConfig{})
	nat := &fakeNAT{public: net.Root().NextIP()}
	lan := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.0.0.1"))
	inside := net.AddHost("inside", lanSite, lan, HostConfig{})

	ps, _ := pub.Listen(200)
	is, _ := inside.Listen(100)
	ps.OnRecv = func(p *Packet) { ps.Send(p.Src, 16, "pong") }
	got := 0
	is.OnRecv = func(p *Packet) {
		got++
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("boundary-deferred packet not owned by shard 1 at delivery: %v", r)
			}
		}()
		p.Live(eng.Shard(1), "OnRecv")
	}
	eng.Shard(1).At(0, func() { is.Send(Endpoint{IP: pub.IP(), Port: 200}, 32, "ping") })
	eng.RunUntil(sim.Time(sim.Second))
	if got != 1 {
		t.Fatalf("delivered %d replies through the boundary, want 1", got)
	}
}

// A stream message crosses shards inside a segment that the send-side
// hand-off does not follow: the stream hands the message, and what it
// carries, to the receiving shard on delivery, so a pooled object in it is
// released there without a cross-shard panic.
func TestPacketDebugStreamHandOff(t *testing.T) {
	eng, net := shardedDebugNet(t, 2)
	a := net.AddHost("a", net.AddSite("a"), net.Root(), HostConfig{}) // shard 0
	b := net.AddHost("b", net.AddSite("b"), net.Root(), HostConfig{}) // shard 1
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)
	got := 0
	b.ListenStream(7000, func(st *Stream) {
		st.OnMessage(func(_ int, msg any) {
			got++
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("releasing the message on the receiving shard: %v", r)
				}
			}()
			net.shards[1].pkts.Put(msg.(*Packet), "OnMessage")
		})
	})
	eng.Shard(0).At(0, func() { a.DialStream(Endpoint{IP: b.IP(), Port: 7000}).SendMsg(64, net.shards[0].pkts.Get()) })
	eng.RunUntil(sim.Time(sim.Second))
	if got != 1 {
		t.Fatalf("delivered %d stream messages, want 1", got)
	}
}

// A released packet re-entering the pipeline at the realm boundary panics
// at the "boundary" checkpoint.
func TestPacketDebugBoundaryCheckpoint(t *testing.T) {
	_, net := shardedDebugNet(t, 2)
	net.AddSite("pub")
	lanSite := net.AddSite("lan")
	nat := &fakeNAT{public: net.Root().NextIP()}
	lan := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.0.0.1"))
	net.AddHost("inside", lanSite, lan, HostConfig{})

	p := net.shards[1].pkts.Get()
	net.shards[1].pkts.Put(p, "drop")
	p.entry = lan // simulate a stale pointer re-entering the boundary path
	mustPanic(t, "use of released packet in boundary", func() { deliverBoundary(p) })
}

// An OnRecv handler that retains the packet finds the poison in it after the
// callback returns — the misuse the detector exists to catch.
func TestPacketDebugRetainedPacketIsPoisoned(t *testing.T) {
	s, net := debugNet()
	site := net.AddSite("site")
	a := net.AddHost("a", site, net.Root(), HostConfig{})
	b := net.AddHost("b", site, net.Root(), HostConfig{})
	bs, err := b.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	var retained *Packet
	bs.OnRecv = func(p *Packet) { retained = p }
	as, err := a.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	as.Send(Endpoint{IP: b.IP(), Port: 100}, 10, "hi")
	s.Run()
	if retained == nil {
		t.Fatal("packet not delivered")
	}
	if retained.Size != -1 || retained.Payload != "phys: use of released packet" {
		t.Fatal("retained packet not overwritten with the poison after OnRecv returned")
	}
	mustPanic(t, "use of released packet in send (released in finishReceive)", func() { retained.Live(s, "send") })
}

// pooledProbe is a pooled payload of the layers above: Discard puts it on
// the list of the shard it runs on, as brunet's and vip's payloads do.
type pooledProbe struct {
	lists *probeLists
	sim.Pooled
}

// probeLists are one list per shard, and what Discard put on each.
type probeLists struct {
	sims   []*sim.Simulator
	lists  []sim.FreeList[pooledProbe, *pooledProbe]
	listed []int
}

func (p *pooledProbe) Discard(s *sim.Simulator) {
	l := p.lists // read before Put poisons p
	for i, si := range l.sims {
		if si == s && l.lists[i].Put(p, "phys drop") {
			l.listed[i]++
		}
	}
}

// A pooled payload handed to another shard with its packet, and lost at the
// boundary of the NAT chain that shard owns, goes on that shard's list, where
// the owner stamp the hand-off moved lets it; one lost on the way out goes on
// the sender's. A Discard on any other shard's list would panic here.
func TestPacketDebugDropDiscardsOnHoldingShard(t *testing.T) {
	eng, net := shardedDebugNet(t, 2)
	pubSite, lanSite := net.AddSite("pub"), net.AddSite("lan")
	floor, _ := net.CrossShardFloor()
	eng.SetLookahead(floor)
	pub := net.AddHost("pub", pubSite, net.Root(), HostConfig{})
	nat := &fakeNAT{public: net.Root().NextIP()}
	lan := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.0.0.1"))
	net.AddHost("inside", lanSite, lan, HostConfig{})
	l := &probeLists{sims: net.sims, listed: make([]int, 2)}
	for _, s := range net.sims {
		l.lists = append(l.lists, sim.NewFreeList[pooledProbe](s, "probe", pooledProbe{}))
	}
	ps, _ := pub.Listen(0)
	eng.Shard(0).At(0, func() {
		p := l.lists[0].Get()
		p.lists = l
		ps.Send(Endpoint{IP: nat.public, Port: 999}, 32, p) // no mapping: lost on shard 1
		q := l.lists[0].Get()
		q.lists = l
		ps.Send(Endpoint{IP: MustParseIP("203.0.113.9"), Port: 1}, 32, q) // no route: lost on shard 0
	})
	eng.RunUntil(sim.Time(sim.Second))
	if b, r := stat(net, "lost.boundary"), stat(net, "lost.noroute"); b != 1 || r != 1 {
		t.Fatalf("lost.boundary = %d, lost.noroute = %d, want 1 and 1", b, r)
	}
	if l.listed[0] != 1 || l.listed[1] != 1 {
		t.Fatalf("shards 0 and 1 listed %d and %d payloads, want 1 and 1", l.listed[0], l.listed[1])
	}
}
