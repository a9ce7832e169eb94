package phys

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"wow/internal/sim"
)

// Streams model kernel TCP connections between hosts, the transport behind
// brunet.tcp URIs ("currently there are implementations for TCP and UDP
// transports", §IV-A). A Stream delivers messages reliably and in order;
// segments ride the same middlebox pipeline as datagrams but in the TCP
// wire namespace, so NATs and firewalls track them in separate tables —
// and sites whose firewalls drop UDP can still carry overlay links.
//
// The model is deliberately lean compared to internal/vip's guest TCP:
// overlay links carry small control messages and tunnelled packets, so
// streams provide a fixed send window with retransmission and backoff but
// no congestion control.

// ErrStreamTimeout reports a stream abandoned after retransmission gave
// up (peer crashed, path severed, NAT mapping lost).
var ErrStreamTimeout = errors.New("phys: stream timed out")

// ErrStreamRefused reports a connection attempt to a port with no
// listener.
var ErrStreamRefused = errors.New("phys: stream connection refused")

// Stream wire messages. A SYN and a data segment travel by pointer and are
// never written once sent, so both ends, on any two shards, may read one:
// the dialer's SYN is a field of its Stream, resent as the same pointer, and
// a segment is the one SendMsg or Close built, which the sender keeps for
// retransmission and the receiver may hold in its reorder buffer. A SYN-ACK,
// an ACK and an RST go as values: a shared acknowledgement would let a later
// CumAck overtake an earlier one still in flight.
type streamSyn struct {
	ConnID uint64
}
type streamSynAck struct {
	ConnID uint64
}
type streamRst struct {
	ConnID uint64
}
type streamSeg struct {
	ConnID  uint64
	Seq     uint64 // 1-based message sequence
	Size    int
	Payload any
	Fin     bool
}
type streamAck struct {
	ConnID uint64
	CumAck uint64 // all messages <= CumAck received
}

const (
	streamHdrSize = 24
	streamWindow  = 64 // outstanding messages before queuing
	// streamIdleReap collects streams with no traffic in either
	// direction — orphans left behind by abandoned link attempts.
	// Active overlay links always carry sub-minute keepalives.
	streamIdleReap = 5 * sim.Minute
	// streamInline is how many unacknowledged messages a stream holds
	// before its send queue moves to the heap: five is the most a dial
	// queues before its handshake completes (or fails) in wow_transfer.
	streamInline = 5
)

// Stream.state values.
const (
	streamSynSent = iota
	streamOpen
	streamClosed
)

// Stream is one reliable, ordered message connection between two hosts.
type Stream struct {
	host     *Host
	sock     *UDPSock // underlying wire endpoint (TCP namespace)
	ownsSock bool     // dialer side owns its socket; accepted streams share the listener's
	closing  bool
	closed   bool
	remote   Endpoint
	connID   uint64
	state    int
	syn      streamSyn // the dialer's SYN, sent and resent as &syn

	// send side: every unacknowledged message in sequence order, of which
	// the first inFlight are on the wire (the window) and the rest queue
	// behind it
	nextSeq  uint64
	unacked  []*streamSeg // backed by unackedArr until it outgrows it
	inFlight int
	finSeq   uint64

	rto      sim.Duration
	retries  int
	rtoTimer sim.Timer

	// receive side; oo holds the segments that arrived ahead of rcvNext+1,
	// in sequence order
	rcvNext   uint64
	oo        []*streamSeg
	remoteFin uint64

	onMsg   func(size int, payload any)
	onClose func(err error)

	lastActivity sim.Time
	reaper       sim.Ticker

	unackedArr [streamInline]*streamSeg
}

// newStream makes a stream on sock to remote and arms its idle reaper.
func newStream(h *Host, sock *UDPSock, remote Endpoint, connID uint64, state int) *Stream {
	s := &Stream{host: h, sock: sock, remote: remote, connID: connID, state: state, rto: sim.Second}
	s.unacked = s.unackedArr[:0]
	h.addStream(s)
	s.lastActivity = h.sim.Now()
	h.sim.StartTicker(&s.reaper, streamIdleReap/2, streamIdleReap/10, nil, streamReap, s)
	return s
}

// addStream files s in the host's stream index, which the host's first
// stream makes: a host that never streams keeps none. Lookups read the nil
// map.
func (h *Host) addStream(s *Stream) {
	if h.streams == nil {
		h.streams = make(map[uint64]*Stream)
	}
	h.streams[s.connID] = s
}

// StreamListener accepts inbound streams on a port. Its socket's entry in
// the host's socket table is the listener's registration: a second listener
// on the port is refused at bind, and a closed one's SYNs find no socket.
type StreamListener struct {
	sock   *UDPSock
	accept func(*Stream)
}

// Close stops accepting new streams; established streams survive.
func (l *StreamListener) Close() { l.sock.Close() }

// ListenStream accepts stream connections on port (0 picks ephemeral) in
// the TCP wire namespace; accept fires once per established inbound
// stream, after the handshake.
func (h *Host) ListenStream(port uint16, accept func(*Stream)) (*StreamListener, error) {
	sock, err := h.listenWire(WireTCP, port)
	if err != nil {
		return nil, fmt.Errorf("phys: stream listen: %w", err)
	}
	l := &StreamListener{sock: sock, accept: accept}
	sock.OnRecv = func(p *Packet) { h.streamDispatchListener(l, p) }
	return l, nil
}

// DialStream opens a stream to dst. Messages may be sent immediately;
// they flow after the handshake. Failure surfaces via OnClose.
func (h *Host) DialStream(dst Endpoint) *Stream {
	sock, err := h.listenWire(WireTCP, 0)
	if err != nil {
		panic(fmt.Sprintf("phys: ephemeral stream port: %v", err))
	}
	s := newStream(h, sock, dst, h.net.allocConnID(h), streamSynSent)
	s.ownsSock = true
	s.syn.ConnID = s.connID
	sock.SetReceiver((*streamRecv)(s))
	s.emit(streamHdrSize, &s.syn)
	s.armRTO()
	return s
}

// streamRecv is a dialed stream as its own socket's receiver: the socket's
// slot in the host's table holds the stream itself, so a delivery needs no
// closure.
type streamRecv Stream

// Recv hands a delivered segment to the stream.
func (r *streamRecv) Recv(p *Packet) { (*Stream)(r).receive(p) }

// RemoteEndpoint returns the peer's wire endpoint as observed (NAT-
// translated for accepted streams) — what a URI learner records.
func (s *Stream) RemoteEndpoint() Endpoint { return s.remote }

// OnMessage registers the in-order delivery callback.
func (s *Stream) OnMessage(f func(size int, payload any)) { s.onMsg = f }

// OnClose registers the teardown callback; err is nil for a clean remote
// close.
func (s *Stream) OnClose(f func(err error)) { s.onClose = f }

// SendMsg queues one message of the given wire size for reliable in-order
// delivery. Sending on a closed stream is a silent no-op (the OnClose
// callback has already reported the failure).
func (s *Stream) SendMsg(size int, payload any) {
	if s.state == streamClosed || s.closing {
		return
	}
	s.nextSeq++
	seg := &streamSeg{ConnID: s.connID, Seq: s.nextSeq, Size: size, Payload: payload}
	s.transmitOrQueue(seg)
}

// Close flushes queued messages then closes; the peer sees OnClose(nil)
// once everything is delivered.
func (s *Stream) Close() {
	if s.state == streamClosed || s.closing {
		return
	}
	s.closing = true
	s.nextSeq++
	s.finSeq = s.nextSeq
	fin := &streamSeg{ConnID: s.connID, Seq: s.nextSeq, Fin: true}
	s.transmitOrQueue(fin)
}

// transmitOrQueue appends seg and sends it if the window has room: an open
// stream's queue is empty whenever its window is not full.
func (s *Stream) transmitOrQueue(seg *streamSeg) {
	s.unacked = append(s.unacked, seg)
	if s.state == streamOpen && s.inFlight < streamWindow {
		s.drainQueue()
	}
}

// drainQueue moves queued messages into the window.
func (s *Stream) drainQueue() {
	for s.inFlight < len(s.unacked) && s.inFlight < streamWindow {
		seg := s.unacked[s.inFlight]
		s.inFlight++
		s.emit(streamHdrSize+seg.Size, seg)
	}
	s.armRTO()
}

func (s *Stream) emit(size int, payload any) {
	s.lastActivity = s.host.Sim().Now()
	s.sock.Send(s.remote, size, payload)
}

// streamReap is the idle collector's tick: a package-level function taking
// the stream, like streamTimeoutFired. abort stops the ticker, so a tick
// finds the stream open.
func streamReap(arg any) {
	s := arg.(*Stream)
	if s.host.sim.Now().Sub(s.lastActivity) > streamIdleReap {
		s.abort(ErrStreamTimeout)
	}
}

func (s *Stream) armRTO() {
	s.rtoTimer.Cancel()
	if s.state == streamClosed {
		return
	}
	if s.state == streamOpen && s.inFlight == 0 {
		return
	}
	s.rtoTimer = s.host.Sim().AtArg(s.host.Sim().Now().Add(s.rto), streamTimeoutFired, s)
}

// streamTimeoutFired is the retransmission timer's callback: a package-level
// function taking the stream, so re-arming allocates nothing (see
// sim.AtArg).
func streamTimeoutFired(arg any) { arg.(*Stream).onTimeout() }

func (s *Stream) onTimeout() {
	if s.state == streamClosed {
		return
	}
	s.retries++
	if s.retries > 8 {
		s.abort(ErrStreamTimeout)
		return
	}
	switch s.state {
	case streamSynSent:
		s.emit(streamHdrSize, &s.syn)
	case streamOpen:
		// Retransmit the earliest unacked message.
		if s.inFlight > 0 {
			seg := s.unacked[0]
			s.emit(streamHdrSize+seg.Size, seg)
		}
	}
	s.rto *= 2
	if s.rto > 30*sim.Second {
		s.rto = 30 * sim.Second
	}
	s.armRTO()
}

func (s *Stream) abort(err error) {
	if s.state == streamClosed {
		return
	}
	s.state = streamClosed
	s.rtoTimer.Cancel()
	delete(s.host.streams, s.connID)
	s.reaper.Stop()
	if s.ownsSock {
		s.sock.Close()
	}
	s.flightDiscardBuffers()
	if !s.closed {
		s.closed = true
		if s.onClose != nil {
			s.onClose(err)
		}
	}
}

// flightDiscardBuffers gives every traced overlay packet still buffered in
// a dying stream a route terminal: the window's messages, then out-of-order
// segments held on the receive side, then the queue, each in sequence order
// so the emitted records are deterministic. A segment whose payload already
// terminated elsewhere (delivered from a wire copy, or discarded by the
// peer's teardown of the same shared object) has a cleared context and
// stays silent.
func (s *Stream) flightDiscardBuffers() {
	if s.host.net.FlightRecorder == nil {
		return
	}
	for _, buf := range [][]*streamSeg{s.unacked[:s.inFlight], s.oo, s.unacked[s.inFlight:]} {
		for _, seg := range buf {
			s.host.net.flightDiscard(s.host.Shard(), "stream_abort", seg.Payload)
		}
	}
}

// receive handles wire traffic for an established or dialing stream.
func (s *Stream) receive(p *Packet) {
	s.lastActivity = s.host.Sim().Now()
	switch m := p.Payload.(type) {
	case streamSynAck:
		if m.ConnID != s.connID || s.state != streamSynSent {
			return
		}
		s.state = streamOpen
		s.retries = 0
		s.rto = sim.Second
		s.drainQueue()
	case streamRst:
		if m.ConnID == s.connID {
			s.abort(ErrStreamRefused)
		}
	case streamAck:
		if m.ConnID != s.connID {
			return
		}
		acked := 0
		for acked < s.inFlight && s.unacked[acked].Seq <= m.CumAck {
			acked++
		}
		if acked > 0 {
			s.unacked = slices.Delete(s.unacked, 0, acked)
			s.inFlight -= acked
			s.retries = 0
			s.rto = sim.Second
			s.drainQueue()
		}
		if s.closing && s.finSeq > 0 && m.CumAck >= s.finSeq {
			s.abort(nil) // clean: our FIN delivered
		}
	case *streamSeg:
		if m.ConnID != s.connID {
			return
		}
		s.acceptSeg(m)
	}
}

// acceptSeg handles an inbound data segment (either side). seg is the
// sender's own, which neither end writes again: the reorder buffer holds it
// as it came.
func (s *Stream) acceptSeg(seg *streamSeg) {
	switch {
	case seg.Seq == s.rcvNext+1:
		s.deliver(seg)
		for len(s.oo) > 0 && s.oo[0].Seq == s.rcvNext+1 {
			next := s.oo[0]
			s.oo = slices.Delete(s.oo, 0, 1)
			s.deliver(next)
		}
	case seg.Seq > s.rcvNext+1:
		i, dup := slices.BinarySearchFunc(s.oo, seg.Seq, func(o *streamSeg, seq uint64) int { return cmp.Compare(o.Seq, seq) })
		if dup {
			s.oo[i] = seg
		} else {
			s.oo = slices.Insert(s.oo, i, seg)
		}
	}
	s.emit(streamHdrSize, streamAck{ConnID: s.connID, CumAck: s.rcvNext})
	if s.remoteFin > 0 && s.rcvNext == s.remoteFin && s.state != streamClosed {
		s.abort(nil)
	}
}

func (s *Stream) deliver(seg *streamSeg) {
	s.rcvNext = seg.Seq
	if seg.Fin {
		s.remoteFin = seg.Seq
		return
	}
	if s.onMsg != nil {
		// The message crossed inside a segment, which the send-side
		// hand-off does not follow: what it carries that is still a list's
		// becomes this shard's here.
		sim.HandOff(seg.Payload, s.host.sim)
		s.onMsg(seg.Size, seg.Payload)
	}
}

// streamDispatchListener routes listener-socket traffic: SYNs create
// accepted streams; everything else dispatches by connection ID.
func (h *Host) streamDispatchListener(l *StreamListener, p *Packet) {
	switch m := p.Payload.(type) {
	case *streamSyn:
		if s, ok := h.streams[m.ConnID]; ok {
			// Duplicate SYN: our SYNACK was lost.
			s.emit(streamHdrSize, streamSynAck{ConnID: m.ConnID})
			return
		}
		s := newStream(h, l.sock, p.Src, m.ConnID, streamOpen)
		s.emit(streamHdrSize, streamSynAck{ConnID: m.ConnID})
		l.accept(s)
	case *streamSeg:
		if s, ok := h.streams[m.ConnID]; ok {
			s.remote = p.Src // track NAT rebinding
			s.lastActivity = h.Sim().Now()
			s.acceptSeg(m)
		} else {
			l.sock.Send(p.Src, streamHdrSize, streamRst{ConnID: m.ConnID})
		}
	case streamAck:
		if s, ok := h.streams[m.ConnID]; ok {
			s.receive(p)
		}
	case streamRst:
		if s, ok := h.streams[m.ConnID]; ok {
			s.abort(ErrStreamRefused)
		}
	}
}
