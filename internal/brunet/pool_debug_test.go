//go:build packetdebug

package brunet

import "testing"

// A pooled overlay packet released twice, or routed, delivered or received
// after its release, panics and names both sites; one built by hand is never
// marked.
func TestPoolDebugOverlayPacket(t *testing.T) {
	_, nodes := buildZeroLatencyRing(t, 11, 3)
	n := nodes[0]
	p := n.pool.pkts.Get()
	n.pool.pkts.Put(p, "first site")
	if p.Size != -1 || p.Payload != poisonPayload {
		t.Fatalf("released packet does not hold the poison: size %d payload %v", p.Size, p.Payload)
	}
	mustPanic(t, "double release of overlay packet in second site (first released in first site)",
		func() { n.pool.pkts.Put(p, "second site") })
	mustPanic(t, "use of released overlay packet in routePacket (released in first site)",
		func() { n.routePacket(p, n.addr) })
	mustPanic(t, "use of released overlay packet in deliver (released in first site)",
		func() { n.deliver(p) })
	mustPanic(t, "use of released overlay packet in handleWire",
		func() { n.handleWire(wire{}, p) })

	own := &OverlayPacket{Src: n.addr, Dst: n.addr}
	n.pool.pkts.Put(own, "x")
	n.pool.pkts.Put(own, "y")
	own.Live(n.sim, "z")
}

// A CTM is such a packet with a pooled message of its own: release puts both
// back, poisoned, and a second release of the request — by a handler that
// thought it had flipped it into the reply, say — panics, and so does a
// second release of the message or its use.
func TestPoolDebugCTM(t *testing.T) {
	_, nodes := buildZeroLatencyRing(t, 11, 3)
	n := nodes[0]
	pkt, req := n.ctmPacket(kindRequest)
	req.Type, req.Token = StructuredFar, 7
	if len(req.Relays()) == 0 {
		t.Fatal("the CTM carries no relay candidates; the test would be vacuous")
	}
	n.pool.release(pkt, "routePacket (nearest)")
	if pkt.Size != -1 || pkt.Payload != poisonPayload {
		t.Fatalf("the released packet does not hold the poison: size %d payload %v", pkt.Size, pkt.Payload)
	}
	if req.Type != -1 || req.Kind != 0 || req.URIs != nil || len(req.Relays()) != 0 || req.Token != 0 {
		t.Fatalf("the message of a released CTM does not hold the poison: %+v", *req)
	}
	mustPanic(t, "double release of overlay packet in handleCTMRequest (first released in routePacket (nearest))",
		func() { n.pool.release(pkt, "handleCTMRequest") })
	mustPanic(t, "double release of CTM message in x (first released in routePacket (nearest))",
		func() { n.pool.ctms.Put(req, "x") })
	mustPanic(t, "use of released CTM message in deliver (released in routePacket (nearest))",
		func() { n.deliver(&OverlayPacket{Src: n.addr, Dst: n.addr, Payload: req}) })
}

// A tunnel frame released twice, or handled after its release, panics.
func TestPoolDebugTunnelFrame(t *testing.T) {
	_, nodes := buildZeroLatencyRing(t, 11, 3)
	n := nodes[0]
	f := n.pool.frames.Get()
	n.pool.frames.Put(f, "first site")
	mustPanic(t, "double release of tunnel frame in second site (first released in first site)",
		func() { n.pool.frames.Put(f, "second site") })
	mustPanic(t, "use of released tunnel frame in handleTunnelFrame (released in first site)",
		func() { n.handleTunnelFrame(wire{}, f) })
}

// A link message released twice — by handleWire and again by the tunnel
// endpoint that unwrapped it, say — or handled after its release, panics.
func TestPoolDebugLinkMsg(t *testing.T) {
	_, nodes := buildZeroLatencyRing(t, 11, 3)
	n := nodes[0]
	m := n.pool.links.Get()
	m.From, m.To, m.Token = nodes[1].addr, n.addr, 9
	n.pool.links.Put(m, "handleWire")
	if m.Seq != -1 || m.Token != 0 {
		t.Fatalf("released link message does not hold the poison: %+v", *m)
	}
	mustPanic(t, "double release of link message in handleTunnelFrame (first released in handleWire)",
		func() { n.pool.links.Put(m, "handleTunnelFrame") })
	mustPanic(t, "use of released link message in handleWire (released in handleWire)",
		func() { n.handleWire(wire{}, m) })
	mustPanic(t, "use of released link message in handleLinkRequest (released in handleWire)",
		func() { n.handleLinkRequest(wire{}, m) })

	// One a stream has carried is no longer the list's: its release leaves
	// it alone, however often.
	s := n.pool.links.Get()
	s.Unpool()
	s.Token = 5
	if n.pool.links.Put(s, "x") || n.pool.links.Put(s, "y") || s.Token != 5 {
		t.Fatalf("an unpooled link message was taken back or touched: %+v", *s)
	}
	s.Live(n.sim, "z")
}
