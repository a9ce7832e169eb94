package brunet

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
)

// mallocs counts the heap objects f allocates, the way testing.AllocsPerRun
// does but over one call: the exchanges below each leave state behind and
// cannot be repeated.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAllocHandshake: on a warmed 64-node ring a far CTM and the handshake
// it sets off — the request routed to its target, the reply routed back
// directly or through a forwarder, the responder's link request and the
// initiator's link reply — allocate what the two nodes keep and nothing
// else: a connection on each side. Every packet and message, the CTMs'
// messages with their relay candidates inside, is a listed object that is
// back on its list when the exchange is over, and so is the responder's
// linker. The candidate stash each tunnel overlord files for the other is a
// copy in the overlord's short list, and is gone once the two hold a direct
// edge, a reply that arrives after the link included. A table or the event
// pool may grow under an exchange, so what is kept is asserted as the least
// an exchange costs, with a cap on the growth of the others. A CTM delivered
// at its own sender allocates nothing, also right after its table has
// changed.
func TestAllocHandshake(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 13, 64)
	exchanges, least, most := 0, ^uint64(0), uint64(0)
	for i := 0; exchanges < 16; i++ {
		a, b := nodes[(7*i+3)%64], nodes[(11*i+29)%64]
		if a == b || a.ConnectionTo(b.Addr()) != nil {
			continue
		}
		var via Addr // every other exchange asks for its reply through a forwarder
		if exchanges%2 == 1 {
			via = a.table.slots[0].c.Peer
		}
		const retained = 2 // the two connections
		pkts, ctms, links := a.pktListLen(), a.ctmListLen(), a.linkListLen()
		received, replied := b.Stats.Get("ctm.received"), a.Stats.Get("ctm.replied")
		got := mallocs(func() {
			a.sendCTM(b.Addr(), StructuredFar, DeliverExact, via)
			s.RunUntil(s.Now())
		})
		ca, cb := a.ConnectionTo(b.Addr()), b.ConnectionTo(a.Addr())
		if ca == nil || cb == nil || !ca.Has(StructuredFar) || !cb.Has(StructuredFar) ||
			b.Stats.Get("ctm.received") != received+1 || a.Stats.Get("ctm.replied") != replied+1 {
			t.Fatalf("exchange %d (%v -> %v, reply via %v) did not link both ends; measurement would be vacuous", exchanges, a.Addr(), b.Addr(), via)
		}
		if pl, cl, ll := a.pktListLen(), a.ctmListLen(), a.linkListLen(); !poolDebug && (pl != pkts || cl != ctms || ll != links) {
			t.Errorf("exchange %d: the lists hold %d packets, %d CTM messages and %d link messages, %d, %d and %d before it: a message was kept or not released", exchanges, pl, cl, ll, pkts, ctms, links)
		}
		sa, sb := a.tun.stashOf(b.addr) != nil, b.tun.stashOf(a.addr) != nil
		if sa || sb {
			t.Errorf("exchange %d: a stash outlives the direct edge (%v at the initiator, %v at the responder)", exchanges, sa, sb)
		}
		exchanges++
		if got < retained {
			t.Errorf("exchange %d allocates %d objects, fewer than the %d it keeps: the measurement is wrong", exchanges, got, retained)
			continue
		}
		least, most = min(least, got-retained), max(most, got-retained)
	}
	a := nodes[5]
	ownCTM := func() {
		a.sendCTM(addModRing(a.addr, Addr{19: 1}), StructuredFar, DeliverNearest, Zero)
		s.RunUntil(s.Now())
	}
	ownCTM()
	own := mallocs(ownCTM)
	// The sender's first relay candidate reports a load it has not
	// advertised before: the next CTM carries a changed list.
	var first *Connection
	for _, s := range a.table.slots {
		if !s.c.Tunneled() {
			first = s.c
			break
		}
	}
	first.peerLoad += 1000
	changed := mallocs(ownCTM)
	if raceEnabled || poolDebug {
		t.Logf("allocs per exchange beyond what it keeps under -race or packetdebug: %d to %d, %d and %d delivered at its own sender (not asserted)", least, most, own, changed)
		return
	}
	if least != 0 || most > 3 {
		t.Errorf("%d far CTM + link exchanges allocate %d to %d objects each beyond what they keep, want 0 at the least and at most the table's and the event pool's growth", exchanges, least, most)
	}
	if own != 0 || changed != 0 {
		t.Errorf("a CTM delivered at its own sender allocates %d objects, and %d after a relay candidate's load changed; want 0 and 0", own, changed)
	}
}

// TestJoinCTMPassedAcross: the node nearest a joiner's address answers the
// join CTM and passes a copy across to the joiner's neighbor on the other
// side, so that both future neighbors answer and link. The copy is a packet
// and a message of its own, the request copied in — it arrives after the
// original has been released, blank, to the list, and reads the relay
// candidates the original carried — and original and copy are each released
// exactly once: when the join has drained, every packet and message that was
// taken is back, the lists as long as they were.
func TestJoinCTMPassedAcross(t *testing.T) {
	s, nodes := buildZeroLatencyRing(t, 17, 12)
	net, site := nodes[0].host.Network(), nodes[0].host.Site
	pkts, ctms, links := nodes[0].pktListLen(), nodes[0].ctmListLen(), nodes[0].linkListLen()
	joiner := NewNode(net.AddHost("joiner", site, net.Root(), phys.HostConfig{}), AddrFromString("joiner"), FastTestConfig())

	// A receiver in front of every node's own watches the joiner's join CTM:
	// the first message of a token to arrive anywhere is the original, and
	// its relay candidates are noted as they read then; any other message of
	// that token is a copy.
	type sighting struct {
		orig *ctmMsg
		want []NeighborInfo
	}
	seen := map[uint64]*sighting{}
	copies := 0
	for _, n := range nodes {
		recv := (*nodeRecv)(n)
		n.sock.SetReceiver(recvFunc(func(p *phys.Packet) {
			if op, ok := p.Payload.(*OverlayPacket); ok {
				if m, ok := op.Payload.(*ctmMsg); ok && m.Kind == kindRequest && m.From == joiner.addr {
					switch sg := seen[m.Token]; {
					case sg == nil:
						seen[m.Token] = &sighting{m, append([]NeighborInfo(nil), m.Relays()...)}
					case m != sg.orig:
						copies++
						if len(sg.want) == 0 || !sameList(m.Relays(), sg.want) {
							t.Errorf("the copy passed across carries relay candidates %v, the original carried %v", m.Relays(), sg.want)
						}
						if poolDebug && sg.orig.Type != -1 {
							t.Errorf("the original of the copy passed across is not yet released: %+v", *sg.orig)
						}
					}
				}
			}
			recv.Recv(p)
		}))
	}

	if err := joiner.Start([]URI{nodes[0].BootstrapURI()}); err != nil {
		t.Fatal(err)
	}
	r := &overlayRig{s: s, nodes: append(append([]*Node(nil), nodes...), joiner)}
	var pred, succ *Node
	order := r.ringOrder()
	for i, n := range order {
		if n == joiner {
			pred, succ = order[(i+len(order)-1)%len(order)], order[(i+1)%len(order)]
		}
	}
	recvPred, recvSucc := pred.Stats.Get("ctm.received"), succ.Stats.Get("ctm.received")
	// Long enough for the leaf link, the join CTM and both handshakes; the
	// first status gossip that could repair a missing side is 2 s away.
	s.RunFor(sim.Second)

	if pred.Stats.Get("ctm.received") == recvPred || succ.Stats.Get("ctm.received") == recvSucc {
		t.Fatalf("the join CTM reached %v %d times and %v %d times, want each at least once: no copy was passed across, or it arrived without its message",
			pred.Addr(), pred.Stats.Get("ctm.received")-recvPred, succ.Addr(), succ.Stats.Get("ctm.received")-recvSucc)
	}
	for _, nb := range []*Node{pred, succ} {
		c, back := joiner.ConnectionTo(nb.Addr()), nb.ConnectionTo(joiner.Addr())
		if c == nil || back == nil || !c.Has(StructuredNear) || !back.Has(StructuredNear) {
			t.Errorf("a second after its start the joiner and its neighbor %v are not linked near both ways", nb.Addr())
		}
	}
	if copies == 0 {
		t.Errorf("no copy of the join CTM was seen on the wire")
	}
	if pl, cl, ll := joiner.pktListLen(), joiner.ctmListLen(), joiner.linkListLen(); !poolDebug && (pl != pkts || cl != ctms || ll != links) {
		t.Errorf("after the join the lists hold %d packets, %d CTM messages and %d link messages, %d, %d and %d before it: an object leaked or was released to be taken twice", pl, cl, ll, pkts, ctms, links)
	}
}

// recvFunc is a function as a socket's phys.Receiver: a sniffer a test
// installs in front of a node's own receiver, (*nodeRecv)(n).
type recvFunc func(*phys.Packet)

func (f recvFunc) Recv(p *phys.Packet) { f(p) }

// gcOwned returns what a node would have received had the sender's message
// been a fresh object that no list ever takes back: a copy that shares
// nothing poolable with the original, down to a CTM's message and what a
// frame carries. Pings are
// not the shard lists' (they come home to their sender) and pass as they are.
func gcOwned(payload any) any {
	switch m := payload.(type) {
	case *OverlayPacket:
		q := *m
		q.Pooled = sim.Pooled{}
		switch in := m.Payload.(type) {
		case *AppData:
			if in == &m.app {
				q.Payload = &q.app
			}
		case *ctmMsg:
			c := *in
			c.Pooled = sim.Pooled{}
			q.Payload = &c
		}
		return &q
	case *linkMsg:
		q := *m
		q.Pooled = sim.Pooled{}
		return &q
	case *tunnelFrame:
		q := *m
		q.Pooled = sim.Pooled{}
		q.Inner = gcOwned(m.Inner)
		return &q
	}
	return payload
}

// joinProgram builds a seeded overlay (joinOverlay) and returns everything
// two runs are compared by: every node's connection table and counters, and
// the number of events run.
func joinProgram(t *testing.T, public, symmetric int, gcCopies bool) string {
	r := joinOverlay(t, public, symmetric, gcCopies)
	var out strings.Builder
	for _, n := range r.ringOrder() {
		fmt.Fprintf(&out, "%v:", n.Addr())
		for _, s := range n.table.slots {
			fmt.Fprintf(&out, " %v%v", s.c, s.c.Relays)
		}
		fmt.Fprintf(&out, "\n  %s\n", n.Stats.String())
	}
	fmt.Fprintf(&out, "events %d\n", r.s.Processed)
	return out.String()
}

// joinOverlay builds a seeded overlay — public nodes joining half a second
// apart, then a few behind symmetric NATs, whose near links need tunnels —
// and lets it settle. With gcCopies every datagram is handed to its receiver
// as a gcOwned copy, so no object is ever listed and every sender allocates:
// the reference run.
func joinOverlay(t *testing.T, public, symmetric int, gcCopies bool) *natRig {
	r := &natRig{overlayRig: newOverlayRig(23), nats: map[Addr]*natsim.NAT{}}
	started := func(n *Node) {
		if gcCopies {
			recv := (*nodeRecv)(n)
			n.sock.SetReceiver(recvFunc(func(p *phys.Packet) {
				p.Payload = gcOwned(p.Payload)
				recv.Recv(p)
			}))
		}
		r.s.RunFor(500 * sim.Millisecond)
	}
	for i := 0; i < public; i++ {
		started(r.addPublic(t, fmt.Sprintf("node%03d", i), FastTestConfig()))
	}
	for i := 0; i < symmetric; i++ {
		started(r.addNATed(t, fmt.Sprintf("sym%02d", i), natsim.Symmetric))
	}
	r.s.RunFor(2 * sim.Minute)
	return r
}

// TestPooledJoinMatchesGCOwned: the same seeded join — 200 public nodes and
// six behind symmetric NATs, so CTMs, their replies through forwarders and
// directly, the copies passed across, link requests and replies on the wire
// and inside tunnel frames all occur — comes out the same with every message
// pooled as with every message a fresh object nothing ever takes back: the
// same connection tables, the same counters on every node, the same number of
// events. Run under -tags packetdebug the pooled side is the poison build's,
// which turns what this test would see as a difference into a panic at the
// site; the reference is the same in both builds.
func TestPooledJoinMatchesGCOwned(t *testing.T) {
	const public, symmetric = 200, 6
	pooled := joinProgram(t, public, symmetric, false)
	ref := joinProgram(t, public, symmetric, true)
	if pooled != ref {
		pl, rl := strings.Split(pooled, "\n"), strings.Split(ref, "\n")
		for i := range pl {
			if i >= len(rl) || pl[i] != rl[i] {
				t.Fatalf("pooled and GC-owned joins differ, first at line %d:\npooled:   %s\ngc-owned: %s", i, pl[i], rl[min(i, len(rl)-1)])
			}
		}
		t.Fatal("pooled and GC-owned joins differ in length")
	}
	// The reference itself must be a whole overlay with tunnels in it, or
	// equality proves little.
	for _, want := range []string{"tunnel.established=", "ctm.replied=", "link.success="} {
		if !strings.Contains(ref, want) {
			t.Fatalf("the reference join never counted %q", want)
		}
	}
	if n := strings.Count(ref, "structured.near"); n < 2*(public+symmetric) {
		t.Fatalf("the reference join holds %d near links over %d nodes: the ring did not form", n, public+symmetric)
	}
}

// shardedBatchedFleet stands up routers on a site-sharded fabric the way the
// experiments fabric's batched plan does (internal/experiments, fabric.go —
// which a test of this package cannot import): sites round-robin over the
// shards with 10 ms between them, keepalives coarse, joins in batches one
// every five seconds whose sizes ramp 1, 1, 2, 4, … up to limit, each joiner
// bootstrapping off three members of the earlier batches. Nothing has run
// yet when it returns; end is where the last batch's interval is over.
func shardedBatchedFleet(t *testing.T, seed int64, shards, workers, count, limit int) (eng *sim.Sharded, fleet []*Node, end sim.Time) {
	t.Helper()
	eng = sim.NewSharded(seed, shards, workers)
	t.Cleanup(eng.Close)
	net := phys.NewShardedNetwork(eng, phys.UniformLatency(phys.PathModel{}, phys.PathModel{OneWay: 10 * sim.Millisecond}))
	sites := make([]*phys.Site, 32)
	for i := range sites {
		sites[i] = net.AddSite(fmt.Sprintf("site%02d", i))
	}
	floor, ok := net.CrossShardFloor()
	if !ok {
		t.Fatal("no cross-shard site pair")
	}
	eng.SetLookahead(floor)
	fleet = make([]*Node, count)
	for i := range fleet {
		name := fmt.Sprintf("scale%05d", i)
		h := net.AddHost(name, sites[i%len(sites)], net.Root(), phys.HostConfig{})
		fleet[i] = NewNode(h, AddrFromString(name), Config{PingInterval: 60 * sim.Second})
	}
	const interval = 5 * sim.Second
	for started := 0; started < count; {
		size := min(max(started, 1), limit, count-started)
		for j := 0; j < size; j++ {
			n := fleet[started+j]
			var picks []*Node // resolved to URIs when the start fires: a node binds its port in Start
			for _, off := range []int{0, 7, 13} {
				if started > 0 {
					picks = append(picks, fleet[(started+j+off)%started])
				}
			}
			n.host.Sim().At(end.Add(sim.Duration(j)*(interval/2/sim.Duration(size))), func() {
				boot := make([]URI, len(picks))
				for k, p := range picks {
					boot[k] = p.BootstrapURI()
				}
				if err := n.Start(boot); err != nil {
					panic(fmt.Sprintf("start %v: %v", n.Addr(), err))
				}
			})
		}
		started += size
		end = end.Add(interval)
	}
	return eng, fleet, end
}

// TestPoolBoundedHandshake: objects that cross shards are not bounded by
// what a shard has in flight — a shard's list holds the largest excess of
// releases over acquires the shard has ever seen — so what keeps the
// handshake's lists short is that a CTM's reply is taken from the lists the
// request is released on (one kind of packet and one of message for the
// exchange), and a link reply likewise: every shard an exchange touches is
// left where it was found. A 400-node batched join over four shards holds it
// to account, over the packet, CTM message and link message lists. The
// measure is taken from the lists themselves: nothing leaves a list but to
// be in flight, so the deepest a listed count is ever drawn down below an
// earlier level is a lower bound of the most objects in flight at once —
// for one shard (what it had sent and not yet got back) and for the sum
// (process-wide). A shard's lists may end no longer than twice the shard's
// own mark, and all of them together no longer than three times the
// process-wide one: the shards' marks do not fall on the same instant.
// (With replies on lists of their own every list walks off by itself — a
// shard that answers more than it asks piles up requests and never has a
// reply to hand: this build, before CTM messages had a list, then ended with
// 140 to 201 objects a shard against marks of 31 to 42, 664 in all against
// 76. It ends with 67 to 86 against 55 to 80, and 303 against 148, as it
// is.)
func TestPoolBoundedHandshake(t *testing.T) {
	if poolDebug {
		t.Skip("the packetdebug lists hold nothing")
	}
	const shards, perShard, overall = 4, 2, 3
	eng, fleet, end := shardedBatchedFleet(t, 5, shards, shards, 400, 64)
	end = end.Add(30 * sim.Second)
	// One sampler per shard reads its own shard's lists every millisecond;
	// sample k of every shard is the same virtual instant.
	samples := make([][]int, shards)
	for sh := range samples {
		s, probe := eng.Shard(sh), (*Node)(nil)
		for _, n := range fleet {
			if n.host.Sim() == s {
				probe = n
				break
			}
		}
		var tick func()
		tick = func() {
			samples[sh] = append(samples[sh], probe.pktListLen()+probe.ctmListLen()+probe.linkListLen())
			if s.Now() < end {
				s.After(sim.Millisecond, tick)
			}
		}
		s.At(0, tick)
	}
	eng.RunUntil(end)

	routable := 0
	for _, n := range fleet {
		if n.IsRoutable() {
			routable++
		}
	}
	if routable != len(fleet) {
		t.Fatalf("%d of %d nodes routable after the build; the measurement would be vacuous", routable, len(fleet))
	}
	// mark is the deepest drawdown of a series of listed counts.
	mark := func(count func(k int) int) (last, deepest int) {
		peak := 0
		for k := range samples[0] {
			last = count(k)
			peak = max(peak, last)
			deepest = max(deepest, peak-last)
		}
		return last, deepest
	}
	for sh := range samples {
		listed, inFlight := mark(func(k int) int { return samples[sh][k] })
		t.Logf("shard %d: %d handshake objects listed after the build, %d in flight at once", sh, listed, inFlight)
		if inFlight < 8 {
			t.Fatalf("shard %d's lists were never drawn down by more than %d objects; the measurement would be vacuous", sh, inFlight)
		}
		if listed > perShard*inFlight {
			t.Errorf("shard %d's lists hold %d handshake objects after the build, more than %d times the %d the shard ever had in flight at once", sh, listed, perShard, inFlight)
		}
	}
	listed, inFlight := mark(func(k int) (sum int) {
		for sh := range samples {
			sum += samples[sh][k]
		}
		return sum
	})
	t.Logf("all shards: %d listed after the build, %d in flight at once", listed, inFlight)
	if listed > overall*inFlight {
		t.Errorf("the lists hold %d handshake objects after the build, more than %d times the %d that were ever in flight at once", listed, overall, inFlight)
	}
}

// TestAllocFreeForwardingSharded is TestAllocFreeOrigination's guard on the
// site-sharded engine: application packets between nodes of different
// shards — taken from the sender's shard's list, handed across by the
// engine's lanes hop by hop, released into the receiver's shard's — allocate
// nothing once warm, window barrier and lane merge included. Every pair sends
// both ways, so each shard gets back what it gives; the fleet's tickers are
// stopped after the build, which leaves the keepalives (allocation-free,
// TestAllocFreeMaintenance) as the only other traffic.
func TestAllocFreeForwardingSharded(t *testing.T) {
	const shards = 4
	eng, fleet, end := shardedBatchedFleet(t, 9, shards, shards, 48, 16)
	eng.RunUntil(end.Add(2 * sim.Minute))
	type pair struct{ a, b *Node }
	var pairs []pair
	delivered := make([]int, len(fleet)) // each written by its node's shard alone
	for i, n := range fleet {
		n.RegisterProto("allocguard", func(Addr, AppData) { delivered[i]++ })
		n.near.ticker.Stop()
		n.far.ticker.Stop()
		if n.sco != nil {
			n.sco.ticker.Stop()
		}
		if peer := fleet[(i+1)%len(fleet)]; len(pairs) < 16 && n.host.Site.Shard() != peer.host.Site.Shard() {
			pairs = append(pairs, pair{n, peer})
		}
	}
	if len(pairs) < 16 {
		t.Fatalf("only %d cross-shard pairs in the fleet", len(pairs))
	}
	d := AppData{Proto: "allocguard", Size: 64}
	round := func() {
		for _, p := range pairs {
			p.a.SendTo(p.b.Addr(), DeliverExact, d)
			p.b.SendTo(p.a.Addr(), DeliverExact, d)
		}
		eng.RunUntil(eng.Now().Add(500 * sim.Millisecond))
	}
	for i := 0; i < 64; i++ {
		round()
	}
	before := 0
	for _, c := range delivered {
		before += c
	}
	avg := testing.AllocsPerRun(100, round)
	after := 0
	for _, c := range delivered {
		after += c
	}
	if after-before != 101*2*len(pairs) {
		t.Fatalf("%d of %d packets delivered; measurement would be vacuous", after-before, 101*2*len(pairs))
	}
	if raceEnabled || poolDebug {
		t.Logf("allocs per round of %d cross-shard packets under -race or packetdebug: %.2f (not asserted)", 2*len(pairs), avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per round of %d cross-shard packets = %.2f, want 0", 2*len(pairs), avg)
	}
}
