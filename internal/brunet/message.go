package brunet

import (
	"fmt"

	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/trace"
)

// ConnType classifies overlay connections (§IV-A).
type ConnType int

const (
	// Leaf connections bootstrap new nodes onto the overlay: a
	// unidirectional link to a well-known node that forwards traffic
	// until the newcomer is routable.
	Leaf ConnType = iota
	// StructuredNear connections join a node to its nearest ring
	// neighbors; they define ring consistency and routability.
	StructuredNear
	// StructuredFar connections are long-range links that cut the
	// average overlay path to O((1/k)·log²n) hops.
	StructuredFar
	// Shortcut connections are created on demand between communicating
	// nodes by the ShortcutConnectionOverlord, collapsing multi-hop
	// virtual-IP paths to a single overlay hop.
	Shortcut
	// Relay connections are direct links recruited by the tunnel
	// overlord purely to carry tunnel frames for a third party. They are
	// not ring routers (not structured) and are dropped when no tunnel
	// uses them any more.
	Relay
)

// String names the connection type.
func (t ConnType) String() string {
	switch t {
	case Leaf:
		return "leaf"
	case StructuredNear:
		return "structured.near"
	case StructuredFar:
		return "structured.far"
	case Shortcut:
		return "shortcut"
	case Relay:
		return "relay"
	}
	return fmt.Sprintf("ConnType(%d)", int(t))
}

// Wire header and message size estimates (bytes). Payload sizes ride on
// top; the physical layer charges transmission time for the total.
const (
	linkMsgSize    = 96
	pingMsgSize    = 40
	overlayHdrSize = 48
	ctmMsgSize     = 64 // plus ~16 per carried URI, ~24 per relay candidate
	statusMsgSize  = 48 // plus ~24 per advertised neighbor
	tunnelHdrSize  = 48 // tunnelFrame envelope around the inner message
)

// linkMsg is a message of the linking protocol handshake (§IV-B2), sent
// directly over the physical network to one of the target's URIs (or, for a
// tunnel edge, inside a tunnelFrame): the request that begins or continues an
// attempt, and — Reply set — the acknowledgement that completes it or, with a
// refusal code, the answer that turns it away.
//
// A link message travels by pointer and is pooled per shard (shardPool),
// request and reply on the one list: the linker takes the request from its
// shard's list, the responder takes the reply from its own — the list it is
// about to put the request on — and handleWire releases either once its
// handler has returned. The handlers keep the URIs slice and nothing else.
// A message the physical layer loses goes on the list of the shard that
// lost it (Discard). One that reaches a stopped node, or that a relay
// cannot forward, is the garbage collector's, and so is one a phys.Stream
// has carried (unpool).
type linkMsg struct {
	From Addr
	// To is the request's intended target; a NAT-forwarded packet may reach
	// the wrong node. Unset in a reply.
	To    Addr
	Reply bool
	// refusal, in a reply, says why the request was turned away; zero
	// accepts it.
	refusal refusal
	Type    ConnType // of the request
	Token   uint64   // identifies one linking attempt across resends
	Seq     int      // the request's resend counter within the attempt
	// URIs is the sender's URI list: the initiator's, so the responder can
	// reciprocate state, and the responder's in the reply.
	URIs []URI
	// Observed is the reply's: the source endpoint the responder saw (NAT
	// discovery).
	Observed URIEndpoint

	sim.Pooled
}

// Discard puts a link message the physical layer lost on the list of the
// shard s drives (phys.Discarder).
func (m *linkMsg) Discard(s *sim.Simulator) { poolOf(s).links.Put(m, "phys drop") }

// URIEndpoint wraps the observed endpoint in the reply, letting initiators
// behind NATs learn their NAT-assigned IP/port (§IV-C).
type URIEndpoint struct {
	URI URI
}

// refusal is why a link request was turned away (handleLinkError).
type refusal uint8

const (
	// refuseBusy breaks a linking race: the responder's own attempt toward
	// the requester goes on, and the requester gives its up (§IV-B2).
	refuseBusy refusal = 1 + iota
	// refuseWrongTarget answers a request meant for another node (a stale
	// URI, a NAT rebinding): the requester moves to its next URI.
	refuseWrongTarget
)

// pingMsg keeps an idle connection alive (§IV-B); unresponded pings mark
// the connection dead. The pinging node takes the message from its shard's
// list (shardPool); the responder answers by flipping the very message it
// received into a pong (Pong set, From and Load rewritten, Seq echoed) and
// sending it back, where the pinging node puts it on its shard's list again
// (handleWire) — so a keepalive round allocates nothing and leaves the list
// where it found it. This relies on the network delivering a payload at most
// once and on no handler keeping a reference. A ping or pong the physical
// layer loses goes on the list of the shard that lost it (Discard); one a
// phys.Stream has carried is garbage (unpool).
type pingMsg struct {
	From Addr
	Seq  uint64
	// Pong marks the answer. Load then piggybacks the responder's current
	// relay load (tunnel pairs it is carrying frames for), so every
	// keepalive round refreshes the liveness estimator's RTT sample and
	// the relay scorer's load view at once.
	Pong bool
	// Pooled sits in the padding after Pong.
	sim.Pooled
	Load int
}

// Discard puts a ping or pong the physical layer lost on the list of the
// shard s drives (phys.Discarder).
func (m *pingMsg) Discard(s *sim.Simulator) { poolOf(s).pings.Put(m, "phys drop") }

// closeMsg announces graceful connection teardown. A node sends one and the
// same message every time (Node.closing): it is immutable, so any shard may
// read it and a stream may keep it.
type closeMsg struct {
	From Addr
}

// leaveMsg announces a graceful departure to a structured-near neighbor.
// Besides acting as a close, it hands off the departing node's view of the
// ring: Neighbors carries the other near neighbors (with URIs) so the
// receiver can link straight to its new ring neighbor instead of waiting
// for status gossip — planned departures skip the ping-timeout path
// entirely (the §V-C migration window).
type leaveMsg struct {
	From      Addr
	Neighbors []NeighborInfo
}

// suspectMsg forwards a death verdict: the sender timed out its link to
// Dead, and tells peers that may also hold one to probe it immediately
// with a reduced retry budget (fast failure detection) instead of each
// independently burning the full keepalive cycle.
type suspectMsg struct {
	From Addr
	Dead Addr
}

// statusMsg is exchanged over structured near connections, advertising a
// node's current ring neighborhood so peers can discover closer neighbors
// (ring repair and convergence).
type statusMsg struct {
	From      Addr
	Neighbors []NeighborInfo
}

// NeighborInfo names one ring neighbor and how to reach it. Load, carried
// only in CTM relay-candidate lists, is the advertiser's last view of that
// neighbor's relay load — it seeds load-aware tunnel-relay selection
// before the selector has heard a pong from the relay itself. Load sits in
// the padding after Addr: an entry is 48 bytes, which every CTM message
// holds tunnelMaxRelays of.
type NeighborInfo struct {
	Addr Addr
	Load int32
	URIs []URI
}

// same reports whether two entries advertise the same thing: the same peer
// and load, and the same URI list — the same length at the same array,
// which for copy-on-write URI lists (Node.URIs) is the same contents.
func (e *NeighborInfo) same(o *NeighborInfo) bool {
	return e.Addr == o.Addr && e.Load == o.Load && len(e.URIs) == len(o.URIs) &&
		(len(e.URIs) == 0 || &e.URIs[0] == &o.URIs[0])
}

// advert publishes a neighbor list copy-on-write, the way Node.URIs publishes
// the URI list: a list it has handed out is never written again, because
// receivers keep it (a statusMsg in flight), possibly on another shard. The
// near overlord's gossip is its one user. A build compares each entry with
// the published list in place and makes a new array only at the first entry
// that differs; a list that is a strict prefix of the published one is that
// list re-sliced with its capacity capped.
type advert struct {
	pub  []NeighborInfo // the list last handed out
	next []NeighborInfo // the list being built: a prefix of pub until own
	own  bool           // next is a new array
	size int            // the capacity a new array is made with
}

// begin starts a build; a new array, if one is needed, holds size entries.
func (a *advert) begin(size int) { a.next, a.own, a.size = a.pub[:0], false, size }

// add appends e to the list being built and returns the list's length.
func (a *advert) add(e NeighborInfo) int {
	i := len(a.next)
	if !a.own {
		if i < len(a.pub) && a.pub[i].same(&e) {
			a.next = a.pub[:i+1]
			return i + 1
		}
		fresh := make([]NeighborInfo, i, max(i+1, a.size))
		copy(fresh, a.pub)
		a.next, a.own = fresh, true
	}
	a.next = append(a.next, e)
	return i + 1
}

// publish ends the build. The list it returns is shared and must not be
// written; changed reports whether it differs from the one published
// before. An empty list is nil.
func (a *advert) publish() (list []NeighborInfo, changed bool) {
	n := len(a.next)
	switch {
	case a.own:
		a.pub = a.next
	case n == len(a.pub):
		return a.pub, false
	case n == 0:
		a.pub = nil
	default:
		a.pub = a.pub[:n:n]
	}
	return a.pub, true
}

// DeliveryMode selects how an overlay packet terminates (§IV-A: "the
// packet is eventually delivered to the destination; or if the destination
// is down, it is delivered to its nearest neighbors").
type DeliveryMode int

const (
	// DeliverNearest hands the packet to whichever node is closest to
	// the destination address — the mode used by CTM requests, enabling
	// join-by-routing-to-self and far-connection targeting.
	DeliverNearest DeliveryMode = iota
	// DeliverExact drops the packet at the nearest node unless it is
	// the addressee — the mode used by tunnelled IP traffic.
	DeliverExact
)

// OverlayPacket is a packet routed greedily over overlay connections.
//
// Every packet a node originates is pooled per shard (shardPool). The
// AppData of SendTo lies inside it, in the app field; a message of the
// connection protocol is a pooled ctmMsg of its own, from the shard's CTM
// list. Payload points at the one in use (boxing a pointer allocates
// nothing). The sender takes the packet (and the message) from its shard's
// lists and whichever node terminates it releases both into the lists of its
// own, after the handler has returned (shardPool.release). Handlers
// therefore must not retain the AppData or the ctmMsg (or pointers into
// them) past the delivery callback. A packet the physical layer loses goes
// on the lists of the shard that lost it, message and carried vip.Packet
// with it (Discard). One that brunet itself cannot send on — delivered to a
// stopped node, refused by a closed connection, no relay for a tunnel edge —
// is the garbage collector's, message and all, and so is one that a
// TCP-transport hop has carried: the stream's retransmission buffer may
// still point at it (sendConn, unpool).
type OverlayPacket struct {
	Src, Dst Addr
	Mode     DeliveryMode
	Hops     int
	Size     int
	Payload  any

	// Trace is the flight-recorder context: zero for unsampled packets,
	// the deterministic per-origin sample hash otherwise. Every hop of a
	// traced packet appends a record; TraceStart stamps the origination
	// time so terminals can report end-to-end latency.
	Trace      uint64
	TraceStart sim.Time

	// app is the inline AppData of an application packet; Payload aliases it.
	app AppData
	sim.Pooled
}

// TraceContext exposes the packet's flight-recorder context
// (trace.Traced); id zero means untraced.
func (p *OverlayPacket) TraceContext() (uint64, sim.Time) { return p.Trace, p.TraceStart }

// Carries is what a cross-shard hand-off (sim.HandOff) follows: the
// application data's own payload (a vip.Packet under IPOP), or a CTM's
// message.
func (p *OverlayPacket) Carries() any {
	switch m := p.Payload.(type) {
	case *AppData:
		return m.Data
	case *ctmMsg:
		return m
	}
	return nil
}

// Unpool takes the packet out of the pools' hands, and the CTM message it
// carries with it (see unpool).
func (p *OverlayPacket) Unpool() {
	p.Pooled.Unpool()
	if m, ok := p.Payload.(*ctmMsg); ok {
		m.Unpool()
	}
}

// Discard gives a packet the physical layer lost back to the lists of the
// shard s drives (phys.Discarder): the packet, its CTM message, and the
// application data's own payload (a vip.Packet under IPOP, which gives
// itself back the same way). A packet a stream has carried is no list's,
// and what it carries stays with the stream's retransmission buffer.
func (p *OverlayPacket) Discard(s *sim.Simulator) {
	var data any
	if a, ok := p.Payload.(*AppData); ok {
		data = a.Data // inside p: read before the release blanks it
	}
	if !poolOf(s).release(p, "phys drop") {
		return
	}
	if d, ok := data.(phys.Discarder); ok {
		d.Discard(s)
	}
}

// ClearTrace consumes the trace context after a terminal record. The
// physical layer calls it through trace.Traced so a packet object shared
// between a transport retransmit buffer and the wire can never produce two
// terminals.
func (p *OverlayPacket) ClearTrace() { p.Trace = 0 }

// ctmKind tells the messages of the connection protocol apart.
type ctmKind uint8

const (
	// kindRequest is the Connect-To-Me request, routed over the overlay to
	// the target address.
	kindRequest ctmKind = iota + 1
	// kindReply answers a request, carrying the responder's URIs back so the
	// initiator can start the linking protocol.
	kindReply
	// kindForwardedReply is a reply on its way to the requester's leaf
	// forwarder (the request's ReplyVia), which relays it over the leaf
	// connection as a plain kindReply: the packet is addressed to the
	// forwarder and charged forwardHdrSize on top of the reply.
	kindForwardedReply
)

// forwardHdrSize is the wire cost of addressing a reply to a forwarder.
const forwardHdrSize = 16

// ctmMsg is a message of the connection protocol (§IV-B1): the
// Connect-To-Me request and its reply. It is pooled per shard (shardPool),
// taken with the OverlayPacket that carries it (ctmPacket) and released with
// it (shardPool.release), and a message sent on — the join CTM passed
// across, a forwarded reply — is a copy in a message of its own (set). Its
// relay candidates lie inside it, so a copy never shares them with the
// original; a handler may keep the URIs slice, which is the sender's
// copy-on-write list, and nothing else.
type ctmMsg struct {
	Kind ctmKind
	// Pooled sits in the padding after Kind.
	sim.Pooled
	From Addr
	// To is the requester a reply is meant for; unset in a request.
	To Addr
	// ReplyVia, when non-zero, asks that the reply to this request be
	// routed to the named forwarding node (the new node's leaf target)
	// which relays it over the leaf connection — necessary while the
	// sender is not yet routable (§IV-C). Unset in a reply.
	ReplyVia Addr
	Type     ConnType
	Token    uint64
	URIs     []URI
	// relays[:nrelays] advertises the sender's directly-connected neighbors
	// (its connection table, capped) so that, if the linking protocol cannot
	// form a direct edge, the receiver can pick mutual neighbors as tunnel
	// relays — Brunet's tunnel-edge fallback for symmetric NATs.
	relays  [tunnelMaxRelays]NeighborInfo
	nrelays int
}

// Relays is the message's relay-candidate list. It lies inside the message:
// whoever keeps it past the handler copies it.
func (m *ctmMsg) Relays() []NeighborInfo { return m.relays[:m.nrelays] }

// set makes m a copy of o, keeping m's own pool state.
func (m *ctmMsg) set(o *ctmMsg) {
	h := m.Pooled
	*m = *o
	m.Pooled = h
}

// tunnelFrame carries one link-layer message of a tunnel edge. The
// originator (From) hands the frame to a relay over a direct connection;
// the relay forwards it, again over a direct connection, to the tunnel
// peer (To), which unwraps Inner and dispatches it as if it had arrived on
// a private transport between From and To. Via names the relay the
// originator chose, so the receiver can answer through the same relay and
// learn working relays from traffic. Frames are never forwarded through a
// second tunnel (no nesting): a relay without a direct connection to To
// drops the frame.
//
// A frame travels by pointer and is pooled per shard (shardPool), like the
// ping it often carries: the originator takes it from its shard's list
// (Node.sendFrame), the relay stamps Observed and forwards the frame it
// received, and the tunnel endpoint releases it into its own shard's list
// once Inner's handler has returned (handleTunnelFrame). A frame the
// physical layer loses goes on the list of the shard that lost it, and the
// message inside with it (Discard); one that a relay cannot forward is the
// garbage collector's. The one thing that keeps a frame past its handler is
// the retransmission buffer of a phys.Stream, when a hop of the tunnel runs
// over the TCP transport: such a frame is no longer pooled (sendConn,
// unpool): the endpoint blanks it and leaves it to the garbage collector.
type tunnelFrame struct {
	From Addr
	To   Addr
	Via  Addr
	// Pooled sits in the padding before Size.
	sim.Pooled
	Size int
	// Observed is stamped by the relay with the originator's wire source
	// endpoint as the relay saw it. Tunnel endpoints otherwise never see
	// each other's physical addresses, and a NATed originator depends on
	// this observation to keep learning its current public URI — the
	// seed for upgrading the tunnel to a direct edge once its NAT
	// allows hole punching.
	Observed URIEndpoint
	Inner    any
}

// Carries is the wrapped message, which a cross-shard hand-off
// (sim.HandOff) follows.
func (f *tunnelFrame) Carries() any { return f.Inner }

// Discard puts a frame the physical layer lost on the list of the shard s
// drives, and gives back the message inside it the way that message's own
// loss would (phys.Discarder). A frame a stream has carried gives back
// nothing: its Inner was cut loose with it (unpool).
func (f *tunnelFrame) Discard(s *sim.Simulator) {
	inner := f.Inner
	if !poolOf(s).frames.Put(f, "phys drop") {
		return
	}
	if d, ok := inner.(phys.Discarder); ok {
		d.Discard(s)
	}
}

// TraceContext delegates to the wrapped message: dropping a tunnel frame
// in flight terminates the traced overlay packet inside it.
func (f *tunnelFrame) TraceContext() (uint64, sim.Time) {
	if t, ok := f.Inner.(trace.Traced); ok {
		return t.TraceContext()
	}
	return 0, 0
}

// ClearTrace delegates to the wrapped message.
func (f *tunnelFrame) ClearTrace() {
	if t, ok := f.Inner.(trace.Traced); ok {
		t.ClearTrace()
	}
}

// tunnelNoRoute is a relay's bounce for a tunnelFrame it could not
// forward (no direct connection to the frame's To). It travels back to the
// originator over the direct connection the frame arrived on, letting the
// originator prune the dead relay from that tunnel edge immediately
// instead of discovering the blackhole by keepalive timeout.
type tunnelNoRoute struct {
	Relay Addr // the bouncing relay
	To    Addr // the tunnel peer it cannot reach
}

// AppData is application traffic tunnelled over the overlay; IPOP uses it
// to carry virtual IP packets. Proto multiplexes independent services on
// one node.
type AppData struct {
	Proto string
	Size  int
	Data  any
}
