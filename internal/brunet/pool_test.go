package brunet

import (
	"fmt"
	"strings"
	"testing"

	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
)

// buildZeroLatencySymmetricRing is buildSymmetricRing on a zero-latency
// fabric (see buildZeroLatencyRing): a frame's whole way from originator
// through relay to tunnel endpoint drains within RunUntil(Now()). The routers
// advertise the given transport: over "tcp" every connection of the ring, and
// so every hop of every tunnel, rides a phys.Stream.
func buildZeroLatencySymmetricRing(t testing.TB, seed int64, routers, symmetric int, transport string) *natRig {
	t.Helper()
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	r := &natRig{overlayRig: &overlayRig{s: s, net: net, site: net.AddSite("z")}, nats: map[Addr]*natsim.NAT{}}
	routerCfg := FastTestConfig()
	routerCfg.Transport = transport
	start := func(n *Node) {
		var boot []URI
		if len(r.nodes) > 0 {
			boot = []URI{{Transport: transport, EP: r.nodes[0].BootstrapURI().EP}}
		}
		if err := n.Start(boot); err != nil {
			t.Fatalf("start %s: %v", n.Addr(), err)
		}
		r.nodes = append(r.nodes, n)
		s.RunFor(2 * sim.Second)
	}
	for i := 0; i < routers; i++ {
		name := fmt.Sprintf("router%02d", i)
		start(NewNode(net.AddHost(name, r.site, net.Root(), phys.HostConfig{}), AddrFromString(name), routerCfg))
	}
	for i := 0; i < symmetric; i++ {
		name := fmt.Sprintf("sym%02d", i)
		nat := natsim.NewNAT(name+"-nat", natsim.Config{Type: natsim.Symmetric}, net.Root().NextIP(), s.Now)
		realm := net.AddRealm(name, net.Root(), nat, phys.MustParseIP(fmt.Sprintf("10.%d.0.2", i)))
		n := NewNode(net.AddHost(name+"-host", r.site, realm, phys.HostConfig{}), AddrFromString(name), FastTestConfig())
		start(n)
		r.nats[n.Addr()] = nat
	}
	s.RunFor(4 * sim.Minute)
	return r
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

// tunnelEdge picks a live tunnel edge of the rig: its originator, the relay
// it is using and the tunnel peer, with a handler on the peer that counts
// what arrives. A first packet goes through so the edge has chosen its relay.
func tunnelEdge(t testing.TB, r *natRig, delivered *int) (orig, relay, peer *Node) {
	t.Helper()
	orig, c := r.tunneledNearConn()
	if orig == nil {
		t.Fatal("no live tunneled near connection")
	}
	peer = r.nodeByAddr(c.Peer)
	peer.RegisterProto("allocguard", func(Addr, AppData) { *delivered++ })
	orig.SendTo(peer.Addr(), DeliverExact, AppData{Proto: "allocguard", Size: 64})
	r.s.RunUntil(r.s.Now())
	if relay = r.nodeByAddr(c.tun.activeRelay); relay == nil || *delivered != 1 {
		t.Fatalf("tunnel edge %v~%v carried %d of 1 packets via %v", orig.Addr(), peer.Addr(), *delivered, c.tun.activeRelay)
	}
	return orig, relay, peer
}

// TestAllocFreeTunnelHop guards the tunnel hop: an application packet sent
// across a tunnel edge, one way — a frame from the shard's list at the
// originator, the same frame stamped and forwarded by the relay, unwrapped,
// dispatched and released at the tunnel endpoint — allocates nothing.
func TestAllocFreeTunnelHop(t *testing.T) {
	r := buildZeroLatencySymmetricRing(t, 21, 3, 8, "udp")
	delivered := 0
	orig, relay, peer := tunnelEdge(t, r, &delivered)
	d := AppData{Proto: "allocguard", Size: 64}
	send := func() {
		orig.SendTo(peer.Addr(), DeliverExact, d)
		r.s.RunUntil(r.s.Now())
	}
	for i := 0; i < 64; i++ {
		send()
	}
	relayed, before := relay.Stats.Get("tunnel.relayed"), delivered
	avg := testing.AllocsPerRun(200, send)
	if got := relay.Stats.Get("tunnel.relayed") - relayed; got != 201 || delivered-before != 201 {
		t.Fatalf("201 sends: relay carried %d frames, endpoint got %d packets; measurement would be vacuous", got, delivered-before)
	}
	if raceEnabled || poolDebug {
		t.Logf("allocs/tunnel hop under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per packet across a tunnel edge = %.2f, want 0", avg)
	}
}

// TestPoolBoundedOneWay: under traffic that only ever runs one way the
// shard's free lists hold what was in flight at once and no more — packets
// over a multi-hop route, frames over a tunnel edge. (A list per node ends
// as long as the number of packets the receiver ever saw.) The lists are
// not empty to begin with: the CTMs and the tunnel handshakes of the ring's
// build went through them, and what those left serves the traffic first.
func TestPoolBoundedOneWay(t *testing.T) {
	const burst = 8 // sends between drains: the most objects ever in flight
	d := AppData{Proto: "allocguard", Size: 64}

	s, nodes := buildZeroLatencyRing(t, 11, 12)
	src, dst := nodes[3], nodes[8]
	delivered := 0
	dst.RegisterProto("allocguard", func(Addr, AppData) { delivered++ })
	bound := max(dst.pktListLen(), burst)
	for sent := 0; sent < 100000; sent += burst {
		for i := 0; i < burst; i++ {
			src.SendTo(dst.Addr(), DeliverExact, d)
		}
		s.RunUntil(s.Now())
		if l := dst.pktListLen(); l > bound {
			t.Fatalf("after %d one-way packets the receiver's list holds %d, more than the %d it held or had in flight", sent+burst, l, bound)
		}
	}
	if delivered != 100000 {
		t.Fatalf("%d of 100000 packets delivered", delivered)
	}
	if l := dst.pktListLen(); !poolDebug && l != bound {
		t.Errorf("list holds %d packets after bursts of %d, want exactly the %d it held or had in flight", l, burst, bound)
	}

	r := buildZeroLatencySymmetricRing(t, 21, 3, 8, "udp")
	delivered = 0
	orig, _, peer := tunnelEdge(t, r, &delivered)
	pbound, fbound := max(peer.pktListLen(), burst), max(peer.frameListLen(), burst)
	for sent := 0; sent < 20000; sent += burst {
		for i := 0; i < burst; i++ {
			orig.SendTo(peer.Addr(), DeliverExact, d)
		}
		r.s.RunUntil(r.s.Now())
		if pl, fl := peer.pktListLen(), peer.frameListLen(); pl > pbound || fl > fbound {
			t.Fatalf("after %d one-way packets over the tunnel the endpoint's lists hold %d packets and %d frames, more than the %d and %d they held or had in flight", sent+burst, pl, fl, pbound, fbound)
		}
	}
	if delivered != 20001 {
		t.Fatalf("%d of 20001 packets delivered over the tunnel", delivered)
	}
}

// TestStreamCarriedObjectsNotRecycled: a phys.Stream's retransmission buffer
// keeps the pointer of what it carried until the peer's ACK arrives, and
// reads its trace context if the stream is torn down first. A packet, link
// message or frame that a TCP-transport hop has carried therefore never joins
// a free list, nor does a CTM's message with it (sendConn, replyTo and the
// linker's dial go through unpool):
// recycled, it would let the teardown of one stream terminate the trace of
// another sender's live packet. On a ring whose routers speak TCP the lists,
// emptied of what the build left (a NATed node reaches some routers over UDP,
// and a CTM delivered at its own sender never leaves the node), stay empty
// under application packets across a tunnel, and on a ring of such routers
// alone under a CTM, its reply and the link handshake they set off, and under
// a keepalive round: every hop of those rides a stream.
func TestStreamCarriedObjectsNotRecycled(t *testing.T) {
	r := buildZeroLatencySymmetricRing(t, 21, 3, 8, "tcp")
	delivered := 0
	orig, relay, peer := tunnelEdge(t, r, &delivered)
	for _, hop := range [][2]*Node{{orig, relay}, {relay, peer}} {
		if c, ok := hop[0].lookup(hop[1].Addr()); !ok || c.Transport() != "tcp" {
			t.Fatalf("hop %v -> %v does not ride a stream; the test would be vacuous", hop[0].Addr(), hop[1].Addr())
		}
	}
	*peer.pool = *newShardPool(r.s).(*shardPool)
	d := AppData{Proto: "allocguard", Size: 64}
	for i := 0; i < 64; i++ {
		orig.SendTo(peer.Addr(), DeliverExact, d)
		r.s.RunUntil(r.s.Now())
	}
	if delivered != 65 {
		t.Fatalf("%d of 65 packets delivered over the tunnel", delivered)
	}
	if pl, fl := peer.pktListLen(), peer.frameListLen(); pl != 0 || fl != 0 {
		t.Errorf("the shard's lists hold %d packets and %d frames that a stream's retransmission buffer may still point at, want 0 and 0", pl, fl)
	}

	// Two routers across the ring from each other lose their link, if they
	// hold one, and find each other by CTM: the request and the reply are
	// routed through the routers in between, and the dial that follows is a
	// stream of its own.
	r = buildZeroLatencySymmetricRing(t, 22, 8, 0, "tcp")
	for _, n := range r.nodes {
		for _, c := range n.Connections() {
			if c.Transport() != "tcp" {
				t.Fatalf("%v holds a %s link to %v; the test would be vacuous", n.Addr(), c.Transport(), c.Peer)
			}
		}
	}
	order := r.ringOrder()
	a, b := order[0], order[len(order)/2]
	if c, ok := a.lookup(b.Addr()); ok {
		a.dropConnection(c, false, dropTrim)
	}
	if c, ok := b.lookup(a.Addr()); ok {
		b.dropConnection(c, false, dropTrim)
	}
	*a.pool = *newShardPool(r.s).(*shardPool)
	received, replied, linked := b.Stats.Get("ctm.received"), a.Stats.Get("ctm.replied"), r.totalStat("link.success")
	a.sendCTM(b.Addr(), StructuredNear, DeliverExact, Zero)
	r.s.RunUntil(r.s.Now())
	if c, ok := a.lookup(b.Addr()); !ok || c.Transport() != "tcp" || b.Stats.Get("ctm.received") != received+1 ||
		a.Stats.Get("ctm.replied") != replied+1 || r.totalStat("link.success") == linked {
		t.Fatalf("the CTM from %v did not reach %v, come back and link the two over a stream; the test would be vacuous", a.Addr(), b.Addr())
	}
	if pl, cl, ll := a.pktListLen(), a.ctmListLen(), a.linkListLen(); pl != 0 || cl != 0 || ll != 0 {
		t.Errorf("the shard's lists hold %d packets, %d CTM messages and %d link messages that a stream's retransmission buffer may still point at, want none", pl, cl, ll)
	}

	// Every node pings every peer once: the ping goes out on a stream and
	// comes home on one as the pong, where the pinging node releases it.
	for _, n := range r.nodes {
		for _, c := range n.Connections() {
			c.loadKnown = false
			n.sendPing(c)
		}
	}
	r.s.RunUntil(r.s.Now())
	for _, n := range r.nodes {
		for _, c := range n.Connections() {
			if !c.loadKnown {
				t.Fatalf("no pong came home to %v from %v; the test would be vacuous", n.Addr(), c.Peer)
			}
		}
	}
	if l := a.pingListLen(); l != 0 {
		t.Errorf("the shard's list holds %d pings that a stream's retransmission buffer may still point at, want 0", l)
	}
}

// TestOwnerStampShardedTunnel: on a two-shard engine an application packet
// crosses a tunnel edge from a node on shard 1 to a relay and a tunnel
// endpoint on shard 0. Every cross-shard hop hands the phys packet, the frame
// and the overlay packet inside it to the far shard, so each is released on
// the list of the shard that holds it: nothing panics under packetdebug
// (where CI runs this with -race), and there a release of the delivered
// packet on the sender's list is a cross-shard release, which does.
func TestOwnerStampShardedTunnel(t *testing.T) {
	r := buildShardedSymmetricRing(t, 21, 1, 3, 8)
	byAddr := map[Addr]*Node{}
	for _, n := range r.nodes {
		byAddr[n.Addr()] = n
	}
	var orig, peer *Node
	var edge *Connection
	for _, n := range r.nodes {
		for _, c := range n.Connections() {
			if c.Tunneled() && orig == nil && n.Host().Shard() == 1 && byAddr[c.Peer].Host().Shard() == 0 {
				orig, peer, edge = n, byAddr[c.Peer], c
			}
		}
	}
	if orig == nil {
		t.Fatal("no tunnel edge from shard 1 to shard 0; the test would be vacuous")
	}
	var pkt *OverlayPacket
	delivered := 0
	peer.RegisterProto("owner", func(Addr, AppData) {
		delivered++
		if poolDebug {
			mustPanic(t, "cross-shard release of overlay packet in sender's list: owned by shard 0, released on shard 1",
				func() { orig.pool.pkts.Put(pkt, "sender's list") })
		}
	})
	r.eng.Shard(1).At(r.eng.Now(), func() {
		// SendTo, keeping the packet.
		pkt = orig.pool.pkts.Get()
		pkt.Src, pkt.Dst, pkt.Mode = orig.addr, peer.addr, DeliverExact
		pkt.app = AppData{Proto: "owner", Size: 64}
		pkt.Payload, pkt.Size = &pkt.app, overlayHdrSize+64
		orig.routePacket(pkt, orig.addr)
	})
	r.eng.RunFor(sim.Second)
	if relay := byAddr[edge.tun.activeRelay]; delivered != 1 || relay == nil || relay.Host().Shard() != 0 {
		t.Fatalf("delivered %d of 1 packets, relay %v; the test would be vacuous", delivered, edge.tun.activeRelay)
	}
}
