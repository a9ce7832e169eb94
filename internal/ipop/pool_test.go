package ipop

import (
	"fmt"
	"strings"
	"testing"

	"wow/internal/brunet"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/vip"
)

// TestPoolBoundedOneWay: 100 000 datagrams from one workstation's stack to
// another's, through IPOP and the overlay with nothing coming back, allocate
// nothing — and since no packet is lost on this fabric, every object that
// was ever allocated is either in flight or on a free list, so no list grows
// with the traffic either. (With a list per node or per stack the sender
// finds its own empty at every send: two allocations a datagram, and the
// receiver's lists end 100 000 long.)
func TestPoolBoundedOneWay(t *testing.T) {
	s := sim.New(1)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	site := net.AddSite("lan")
	cfg := brunet.FastTestConfig()
	router := NewRouter(net.AddHost("r", site, net.Root(), phys.HostConfig{}), brunet.AddrFromString("r"), cfg)
	if err := router.Start(nil); err != nil {
		t.Fatal(err)
	}
	var stacks [2]*vip.Stack
	for i := range stacks {
		n := New(net.AddHost(fmt.Sprintf("w%d", i), site, net.Root(), phys.HostConfig{}),
			vip.MustParseIP(fmt.Sprintf("172.16.1.%d", 2+i)), cfg)
		if err := n.Start(BootURIs(router)); err != nil {
			t.Fatal(err)
		}
		stacks[i] = vip.NewStack(n, vip.StackConfig{})
		s.RunFor(sim.Second)
	}
	s.RunFor(30 * sim.Second)
	got := 0
	if err := stacks[1].ListenUDP(9, func(vip.IP, uint16, int, any) { got++ }); err != nil {
		t.Fatal(err)
	}
	// The clock stands still while a datagram crosses the zero-latency
	// fabric, so no keepalive or gossip timer fires inside the measurement.
	send := func() {
		stacks[0].SendUDP(stacks[1].IP(), 9, 9, 1400, nil)
		s.RunUntil(s.Now())
	}
	for i := 0; i < 64; i++ {
		send()
	}
	const n = 100000
	avg := testing.AllocsPerRun(n, send)
	if got != 64+n+1 {
		t.Fatalf("%d of %d datagrams delivered", got, 64+n+1)
	}
	if guardsRelaxed {
		t.Logf("allocs/datagram under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per one-way datagram = %.2f, want 0", avg)
	}
}

// shardedTransfers builds a small overlay on the two-shard engine with a
// workstation on either shard, runs TCP transfers both ways and pings both
// ways between them, and returns everything of the outcome as text.
func shardedTransfers(t *testing.T, workers int) string {
	t.Helper()
	eng := sim.NewSharded(9, 2, workers)
	defer eng.Close()
	net := phys.NewShardedNetwork(eng, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 15 * sim.Millisecond},
	))
	sites := []*phys.Site{net.AddSite("east"), net.AddSite("west")} // shards 0 and 1
	if sites[0].Shard() == sites[1].Shard() {
		t.Fatal("both sites on one shard")
	}
	floor, ok := net.CrossShardFloor()
	if !ok {
		t.Fatal("no cross-shard site pair")
	}
	eng.SetLookahead(floor)

	cfg := brunet.FastTestConfig()
	cfg.JitterSeed = 9 // per-node jitter: the run is a function of (seed, shards) alone
	var routers []*Node
	// A node's bootstrap URI exists once it has started, which happens in
	// an earlier event: resolve it when the Start event fires.
	boot := func() []brunet.URI { return BootURIs(routers[0]) }
	var at sim.Time
	start := func(n *Node, site *phys.Site, boot func() []brunet.URI) {
		eng.Shard(site.Shard()).At(at, func() {
			if err := n.Start(boot()); err != nil {
				panic(fmt.Sprintf("start: %v", err))
			}
		})
		at = at.Add(2 * sim.Second)
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("router%02d", i)
		site := sites[i%2]
		rt := NewRouter(net.AddHost(name, site, net.Root(), phys.HostConfig{}), brunet.AddrFromString(name), cfg)
		if i == 0 {
			start(rt, site, func() []brunet.URI { return nil })
		} else {
			start(rt, site, boot)
		}
		routers = append(routers, rt)
	}
	var stacks [2]*vip.Stack
	for i := range stacks {
		n := New(net.AddHost(fmt.Sprintf("vm%d", i), sites[i], net.Root(), phys.HostConfig{}),
			vip.MustParseIP(fmt.Sprintf("172.16.1.%d", 2+i)), cfg)
		start(n, sites[i], boot)
		stacks[i] = vip.NewStack(n, vip.StackConfig{})
	}
	at = at.Add(30 * sim.Second)

	// Each side's log is written by its own shard only.
	var logs [2]strings.Builder
	const out, back = 256 << 10, 96 << 10
	for i := range stacks {
		i, me, peer := i, stacks[i], stacks[1-i]
		sh := eng.Shard(sites[i].Shard())
		rcvd := 0
		sh.At(0, func() {
			me.ListenTCP(22, func(c *vip.Conn) {
				c.OnMessage(func(size int, _ any) { rcvd += size })
				c.OnClose(func(err error) { fmt.Fprintf(&logs[i], "served %d bytes at %v: %v\n", rcvd, sh.Now(), err) })
				for sent := 0; sent < back; sent += 8192 {
					c.Send(8192, nil)
				}
			})
		})
		sh.At(at, func() {
			c := me.DialTCP(peer.IP(), 22)
			got := 0
			c.OnMessage(func(size int, _ any) {
				if got += size; got == back {
					c.Close()
				}
			})
			c.OnClose(func(err error) {
				fmt.Fprintf(&logs[i], "dialed: got %d acked %d retransmits %d at %v: %v\n", got, c.AckedBytes(), c.Retransmits(), sh.Now(), err)
			})
			for sent := 0; sent < out; sent += 16384 {
				c.Send(16384, nil)
			}
		})
		for k := 0; k < 20; k++ {
			k := k
			sh.At(at.Add(sim.Duration(k)*sim.Second), func() {
				me.Ping(peer.IP(), 56, 2*sim.Second, func(ok bool, rtt sim.Duration) {
					fmt.Fprintf(&logs[i], "ping %d: %v %v\n", k, ok, rtt)
				})
			})
		}
	}
	eng.RunUntil(at.Add(3 * sim.Minute))
	for i, st := range stacks {
		fmt.Fprintf(&logs[i], "stats %s\n", st.Stats.String())
	}
	return "east:\n" + logs[0].String() + "west:\n" + logs[1].String()
}

// TestShardedTransfersCrossShards: with pooled packets, segments and frames
// crossing between two shards in both directions — an object is taken from
// the list of the shard that sends it and put on the list of the shard that
// receives it, each list touched by its own shard's goroutine alone — the
// transfers complete and the run reads the same for one worker and for
// four. CI runs it under -race with four cores.
func TestShardedTransfersCrossShards(t *testing.T) {
	one := shardedTransfers(t, 1)
	for _, want := range []string{
		"dialed: got 98304 acked 262144", "served 262144 bytes", "ping 19: true",
	} {
		if strings.Count(one, want) != 2 {
			t.Fatalf("want %q on both sides:\n%s", want, one)
		}
	}
	if four := shardedTransfers(t, 4); four != one {
		t.Fatalf("4 workers diverged from 1 worker:\n--- 1 worker\n%s--- 4 workers\n%s", one, four)
	}
}
