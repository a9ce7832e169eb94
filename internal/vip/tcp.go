package vip

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"wow/internal/sim"
)

// tcpSegment is one virtual TCP segment. Payload content is abstract: a
// segment covers Len bytes of the stream, and chunk boundaries (Ends)
// carry application messages that complete within the segment. Classic
// sequence-number semantics apply, with the FIN consuming one sequence
// number past the last payload byte. A segment is the TCP header of a
// Packet and lives inside it.
type tcpSegment struct {
	SrcPort, DstPort uint16
	Kind             string // "syn", "synack", or "" for everything else
	Seq              int    // first payload byte offset (data/fin)
	Len              int    // payload bytes
	Ack              int    // cumulative acknowledgment (next expected offset)
	HasAck           bool
	FIN              bool
	// Probe marks a keepalive probe, soliciting an immediate ACK.
	Probe bool
	// Ends is empty on a packet fresh from the pool and keeps its backing
	// array from one use of the packet to the next.
	Ends []chunkEnd
}

// chunkEnd marks an application message whose last byte is stream offset
// End-1; delivering the stream in order up to End delivers Msg.
type chunkEnd struct {
	End  int
	Size int
	Msg  any
}

type connKey struct {
	remote     IP
	remotePort uint16
	localPort  uint16
}

// ooSeg is an out-of-order segment: its packet, under the first byte it
// had when it was parked (read from the packet, it would be gone once the
// packet was released).
type ooSeg struct {
	at int
	p  *Packet
}

// Conn states.
const (
	stateSynSent = iota
	stateSynRcvd
	stateEstablished
	stateClosed
)

// ErrConnClosed is returned by Send on a closed connection.
var ErrConnClosed = errors.New("vip: connection closed")

// ErrTimeout is passed to OnClose when a connection abandons
// retransmission (no acknowledged progress within StackConfig.GiveUp).
var ErrTimeout = errors.New("vip: connection timed out")

// ErrReset is passed to OnClose when the remote rejects the connection.
var ErrReset = errors.New("vip: connection reset")

// chunk is one queued application write.
type chunk struct {
	start int
	size  int
	msg   any
}

// Conn is a reliable byte-stream connection with message framing. Writes
// enqueue (size, msg) chunks; the remote's OnMessage fires once the stream
// is delivered in order through each chunk's last byte. Congestion control
// is Reno-flavoured: slow start, AIMD, fast retransmit on triple duplicate
// ACKs, timeout recovery with exponential backoff.
type Conn struct {
	stack *Stack
	key   connKey
	state int

	// send side
	sndQ      []chunk
	sndTrim   int // index of first retained chunk in sndQ
	sndBytes  int
	sndUna    int
	sndNxt    int
	finSent   bool
	closedLoc bool
	cwnd      float64
	ssthresh  float64
	dupAcks   int

	rto          sim.Duration
	srtt, rttvar sim.Duration
	hasRTT       bool
	rtoTimer     sim.Timer
	timing       bool
	timedEnd     int
	timedAt      sim.Time
	lastProgress sim.Time

	// receive side
	rcvNxt    int
	rcvBytes  int
	remoteFin int // stream offset of FIN, -1 until seen
	// oo parks the segments that arrived ahead of rcvNxt, ordered by first
	// byte — the one place a received packet outlives its handler. A parked
	// packet goes back to the pool when the stream reaches it and it is
	// delivered, when the stream passes it by (a retransmission re-cut
	// across its first byte) or when another segment takes its key; what is
	// still parked when the connection goes is the garbage collector's.
	oo []ooSeg

	onConnect func()
	onMessage func(size int, msg any)
	onClose   func(err error)
	closedCb  bool

	lastHeard sim.Time
	kaTimer   sim.Timer
	kaProbes  int

	retransmits int
}

// ListenTCP installs an accept callback for a port. The callback fires
// when an inbound connection completes its handshake.
func (s *Stack) ListenTCP(port uint16, accept func(*Conn)) error {
	if _, taken := s.listeners[port]; taken {
		return fmt.Errorf("vip: TCP port %d already listening on %s", port, s.IP())
	}
	s.listeners[port] = accept
	return nil
}

// DialTCP opens a connection to dst:port. Writes may be enqueued
// immediately; they flow once the handshake completes. Connection failure
// surfaces through OnClose.
func (s *Stack) DialTCP(dst IP, port uint16) *Conn {
	c := &Conn{
		stack:     s,
		key:       connKey{remote: dst, remotePort: port, localPort: s.ephemeralPort()},
		state:     stateSynSent,
		cwnd:      2,
		ssthresh:  float64(s.cfg.Window),
		rto:       sim.Second,
		remoteFin: -1,
	}
	c.lastProgress = s.sim.Now()
	s.conns[c.key] = c
	s.Stats.Add(cTCPDialed, 1)
	c.sendControl("syn")
	c.armRTO()
	return c
}

// OnConnect registers the handshake-completion callback (dialer side).
func (c *Conn) OnConnect(f func()) { c.onConnect = f }

// OnMessage registers the in-order message delivery callback.
func (c *Conn) OnMessage(f func(size int, msg any)) { c.onMessage = f }

// OnClose registers the teardown callback; err is nil for a clean remote
// close, ErrTimeout/ErrReset otherwise.
func (c *Conn) OnClose(f func(err error)) { c.onClose = f }

// RemoteIP returns the peer's virtual address.
func (c *Conn) RemoteIP() IP { return c.key.remote }

// AckedBytes reports payload bytes acknowledged by the peer.
func (c *Conn) AckedBytes() int {
	if c.sndUna > c.sndBytes {
		return c.sndBytes
	}
	return c.sndUna
}

// Retransmits reports how many segments were retransmitted.
func (c *Conn) Retransmits() int { return c.retransmits }

// Closed reports whether the connection is fully torn down.
func (c *Conn) Closed() bool { return c.state == stateClosed }

// Send enqueues an application message of the given payload size.
func (c *Conn) Send(size int, msg any) error {
	if c.state == stateClosed || c.closedLoc {
		return ErrConnClosed
	}
	if size <= 0 {
		size = 1 // every message occupies at least one stream byte
	}
	c.sndQ = append(c.sndQ, chunk{start: c.sndBytes, size: size, msg: msg})
	c.sndBytes += size
	c.trySend()
	return nil
}

// Close flushes queued data, then sends a FIN. OnClose fires on the peer
// once its stream is fully delivered.
func (c *Conn) Close() {
	if c.state == stateClosed || c.closedLoc {
		return
	}
	c.closedLoc = true
	c.trySend()
}

// abort tears the connection down with an error.
func (c *Conn) abort(err error) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.rtoTimer.Cancel()
	c.kaTimer.Cancel()
	delete(c.stack.conns, c.key)
	c.stack.Stats.Add(cTCPAborted, 1)
	c.fireClose(err)
}

func (c *Conn) fireClose(err error) {
	if c.closedCb {
		return
	}
	c.closedCb = true
	if c.onClose != nil {
		c.onClose(err)
	}
}

// window returns the effective send window in segments.
func (c *Conn) window() float64 {
	w := c.cwnd
	if max := float64(c.stack.cfg.Window); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// segment takes a packet for the peer from the shard's list, with wire bytes
// of TCP on top of the IP header and the connection's ports filled in.
func (c *Conn) segment(wire int) (*Packet, *tcpSegment) {
	p := c.stack.packet(c.key.remote, ProtoTCP, ipHdrSize+wire)
	p.tcp.SrcPort, p.tcp.DstPort = c.key.localPort, c.key.remotePort
	return p, &p.tcp
}

// sendControl emits a handshake segment.
func (c *Conn) sendControl(kind string) {
	p, seg := c.segment(tcpHdrSize)
	seg.Kind = kind
	seg.HasAck = kind == "synack"
	c.stack.send(p)
}

// endsInRange appends the chunk boundaries inside [lo, hi) to out.
func (c *Conn) endsInRange(out []chunkEnd, lo, hi int) []chunkEnd {
	q := c.sndQ[c.sndTrim:]
	i := sort.Search(len(q), func(i int) bool { return q[i].start+q[i].size > lo })
	for ; i < len(q); i++ {
		end := q[i].start + q[i].size
		if end > hi {
			break
		}
		out = append(out, chunkEnd{End: end, Size: q[i].size, Msg: q[i].msg})
	}
	return out
}

// trySend transmits as much of the stream as the window allows, then the
// FIN once everything is flushed and the connection is closing, and arms
// the retransmission timer for what is then outstanding. It reports false
// when the connection is not established and it did none of this.
func (c *Conn) trySend() bool {
	if c.state != stateEstablished {
		return false
	}
	mss := c.stack.cfg.MSS
	for c.sndNxt < c.sndBytes {
		inflight := float64(c.sndNxt-c.sndUna) / float64(mss)
		if inflight >= c.window() {
			break
		}
		n := c.sndBytes - c.sndNxt
		if n > mss {
			n = mss
		}
		// Advance sndNxt before emitting: a zero-latency carrier can
		// deliver the ACK synchronously and re-enter trySend, which
		// must then observe consistent send state.
		seq := c.sndNxt
		c.sndNxt += n
		c.sendData(seq, n)
	}
	if c.closedLoc && !c.finSent && c.sndNxt == c.sndBytes {
		c.finSent = true
		c.sendFIN()
	}
	c.armRTO()
	return true
}

func (c *Conn) sendData(seq, n int) {
	p, seg := c.segment(tcpHdrSize + n)
	seg.Seq, seg.Len, seg.Ack, seg.HasAck = seq, n, c.rcvNxt, true
	seg.Ends = c.endsInRange(seg.Ends, seq, seq+n)
	if !c.timing && seq+n == c.sndNxt {
		// Time only first transmissions at the send frontier (Karn).
		c.timing = true
		c.timedEnd = seq + n
		c.timedAt = c.stack.sim.Now()
	}
	c.stack.Stats.Add(cTCPDataOut, 1)
	c.stack.send(p)
}

func (c *Conn) sendFIN() {
	p, seg := c.segment(tcpHdrSize)
	seg.Seq, seg.FIN, seg.Ack, seg.HasAck = c.sndBytes, true, c.rcvNxt, true
	c.stack.send(p)
}

func (c *Conn) sendAck() {
	p, seg := c.segment(tcpHdrSize)
	seg.Seq, seg.Ack, seg.HasAck = c.sndNxt, c.rcvNxt, true
	c.stack.send(p)
}

// outstanding reports whether anything needs the retransmission timer.
func (c *Conn) outstanding() bool {
	switch c.state {
	case stateSynSent, stateSynRcvd:
		return true
	case stateEstablished:
		return c.sndUna < c.sndNxt || (c.finSent && c.sndUna <= c.sndBytes)
	}
	return false
}

func (c *Conn) armRTO() {
	c.rtoTimer.Cancel()
	if !c.outstanding() {
		return
	}
	c.rtoTimer = c.stack.sim.AtArg(c.stack.sim.Now().Add(c.rto), connTimeoutFired, c)
}

// connTimeoutFired and connKeepAliveFired are the connection's timer
// callbacks: package-level functions taking the connection, so re-arming a
// timer — once per segment for the retransmission timer — allocates nothing
// (see sim.AtArg).
func connTimeoutFired(arg any)   { arg.(*Conn).onTimeout() }
func connKeepAliveFired(arg any) { arg.(*Conn).keepAliveCheck() }

// onTimeout retransmits the earliest outstanding item with exponential
// backoff, shrinking the congestion window to one segment (Tahoe-style
// timeout recovery). Connections abandon after GiveUp without progress —
// long enough to sit out a VM migration.
func (c *Conn) onTimeout() {
	if c.state == stateClosed {
		return
	}
	s := c.stack
	if s.sim.Now().Sub(c.lastProgress) > s.cfg.GiveUp {
		c.abort(ErrTimeout)
		return
	}
	c.retransmits++
	s.Stats.Add(cTCPRTO, 1)
	c.timing = false
	switch c.state {
	case stateSynSent:
		c.sendControl("syn")
	case stateSynRcvd:
		c.sendControl("synack")
	case stateEstablished:
		inflightSegs := float64(c.sndNxt-c.sndUna) / float64(s.cfg.MSS)
		c.ssthresh = inflightSegs / 2
		if c.ssthresh < 2 {
			c.ssthresh = 2
		}
		c.cwnd = 1
		c.dupAcks = 0
		if c.sndUna < c.sndNxt {
			// Go-back-N: everything past sndUna is presumed lost
			// (e.g. the whole window dropped during a migration
			// outage); slow start re-sends it as ACKs re-clock.
			c.sndNxt = c.sndUna
			if c.finSent {
				c.finSent = false // re-send FIN after the data
			}
			n := c.sndBytes - c.sndUna
			if n > s.cfg.MSS {
				n = s.cfg.MSS
			}
			if n > 0 {
				seq := c.sndNxt
				c.sndNxt += n
				c.sendData(seq, n)
			}
		} else if c.finSent {
			c.sendFIN()
		}
	}
	c.rto = min(2*c.rto, maxRTO)
	c.armRTO()
}

// updateRTT folds an RTT sample into srtt/rttvar (RFC 6298 constants).
func (c *Conn) updateRTT(sample sim.Duration) {
	if !c.hasRTT {
		c.srtt = sample
		c.rttvar = sample / 2
		c.hasRTT = true
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.baseRTO()
}

// minRTO / maxRTO clamp the retransmission timeout.
const (
	minRTO = 200 * sim.Millisecond
	maxRTO = 60 * sim.Second
)

// baseRTO computes the un-backed-off retransmission timeout from the
// smoothed RTT estimate, clamped to [minRTO, maxRTO].
func (c *Conn) baseRTO() sim.Duration {
	if !c.hasRTT {
		return sim.Second
	}
	return min(max(c.srtt+4*c.rttvar, minRTO), maxRTO)
}

// handleTCP dispatches an inbound segment to its connection, creating one
// on SYN to a listening port. It reports whether the connection kept the
// packet (see Conn.oo).
func (s *Stack) handleTCP(p *Packet) (kept bool) {
	seg := &p.tcp
	key := connKey{remote: p.Src, remotePort: seg.SrcPort, localPort: seg.DstPort}
	c, exists := s.conns[key]
	if !exists {
		if seg.Kind == "syn" {
			if _, listening := s.listeners[seg.DstPort]; listening {
				c = &Conn{
					stack:     s,
					key:       key,
					state:     stateSynRcvd,
					cwnd:      2,
					ssthresh:  float64(s.cfg.Window),
					rto:       sim.Second,
					remoteFin: -1,
				}
				c.lastProgress = s.sim.Now()
				s.conns[key] = c
				s.Stats.Add(cTCPAccepted, 1)
				c.sendControl("synack")
				c.armRTO()
				return false
			}
		}
		s.Stats.Add(cTCPNoConn, 1)
		return false
	}
	return c.handleSegment(p)
}

// handleSegment processes one inbound segment and reports whether p was
// parked in c.oo. Nothing here reads the segment once receiveData has
// returned: by then a parked packet may already have been drained and
// released by a segment that a synchronous carrier delivered in between.
func (c *Conn) handleSegment(p *Packet) (parked bool) {
	s := c.stack
	seg := &p.tcp
	switch c.state {
	case stateSynSent:
		if seg.Kind == "synack" {
			c.establish()
			c.sendAck()
		}
		return false
	case stateSynRcvd:
		if seg.Kind == "syn" {
			c.sendControl("synack") // duplicate SYN: our SYNACK was lost
			return false
		}
		if seg.HasAck || seg.Len > 0 {
			c.establish()
			if cb, ok := s.listeners[c.key.localPort]; ok {
				cb(c)
			}
			// fall through to process the segment's contents
		} else {
			return false
		}
	case stateClosed:
		return false
	}

	c.lastHeard = s.sim.Now()
	c.kaProbes = 0

	if seg.Probe {
		// Keepalive probe: acknowledge immediately.
		c.sendAck()
	}

	progressed := false

	// --- acknowledgment processing ---
	if seg.HasAck {
		finSeq := c.sndBytes
		switch {
		case seg.Ack > c.sndUna:
			ackedSegs := float64(seg.Ack-c.sndUna) / float64(s.cfg.MSS)
			c.sndUna = seg.Ack
			if c.sndNxt < c.sndUna {
				c.sndNxt = c.sndUna
			}
			c.dupAcks = 0
			progressed = true
			// New data acknowledged: collapse any exponential
			// backoff back to the RTT-derived timeout (RFC 6298
			// §5.7), so recovery after an outage re-clocks at
			// RTT pace rather than at the backed-off ceiling.
			c.rto = c.baseRTO()
			if c.timing && seg.Ack >= c.timedEnd {
				c.updateRTT(s.sim.Now().Sub(c.timedAt))
				c.timing = false
			}
			if c.cwnd < c.ssthresh {
				c.cwnd += ackedSegs // slow start
			} else {
				c.cwnd += ackedSegs / c.cwnd // congestion avoidance
			}
			if c.cwnd > float64(s.cfg.Window) {
				c.cwnd = float64(s.cfg.Window)
			}
			c.trimAcked()
		case seg.Ack == c.sndUna && c.sndNxt > c.sndUna && seg.Len == 0 && !seg.FIN:
			c.dupAcks++
			if c.dupAcks == 3 {
				// Fast retransmit (Reno).
				s.Stats.Add(cTCPFastRetransmit, 1)
				c.retransmits++
				inflightSegs := float64(c.sndNxt-c.sndUna) / float64(s.cfg.MSS)
				c.ssthresh = inflightSegs / 2
				if c.ssthresh < 2 {
					c.ssthresh = 2
				}
				c.cwnd = c.ssthresh
				c.timing = false
				n := c.sndNxt - c.sndUna
				if n > s.cfg.MSS {
					n = s.cfg.MSS
				}
				c.sendData(c.sndUna, n)
			}
		}
		if c.closedLoc && c.sndUna >= finSeq+1 {
			// Our FIN is acknowledged — even if an RTO since cleared
			// finSent to resend it — so it needs no resend; if the
			// remote's stream is also done, tear down.
			c.finSent = true
			c.maybeFinish()
		}
	}

	// --- payload / FIN processing ---
	if seg.Len > 0 || seg.FIN {
		parked = c.receiveData(p)
	}

	if progressed {
		c.lastProgress = s.sim.Now()
	}
	// trySend ends by arming the retransmission timer; arm it here only when
	// trySend did not run, or the timer would be cancelled and scheduled
	// twice for every ACK that makes progress.
	if !progressed || !c.trySend() {
		c.armRTO()
	}
	return parked
}

func (c *Conn) establish() {
	c.state = stateEstablished
	c.lastProgress = c.stack.sim.Now()
	c.lastHeard = c.stack.sim.Now()
	c.armKeepAlive()
	if c.onConnect != nil {
		c.onConnect()
	}
	c.trySend()
}

// armKeepAlive schedules the next idle check. Keepalive emulates the
// kernel behaviour that let the paper's long-lived NFS/PBS sessions ride
// out multi-minute migration outages yet eventually clears connections to
// crashed peers.
func (c *Conn) armKeepAlive() {
	idle := c.stack.cfg.KeepAliveIdle
	if idle < 0 || c.state != stateEstablished {
		return
	}
	c.kaTimer.Cancel()
	c.armKeepAliveIn(idle)
}

// armKeepAliveIn schedules the next keepalive check d from now.
func (c *Conn) armKeepAliveIn(d sim.Duration) {
	c.kaTimer = c.stack.sim.AtArg(c.stack.sim.Now().Add(d), connKeepAliveFired, c)
}

func (c *Conn) keepAliveCheck() {
	if c.state != stateEstablished {
		return
	}
	s := c.stack
	idle := s.sim.Now().Sub(c.lastHeard)
	if idle < s.cfg.KeepAliveIdle {
		// Traffic arrived since; re-check when the idle window would
		// next elapse.
		c.armKeepAliveIn(s.cfg.KeepAliveIdle - idle)
		return
	}
	if c.kaProbes >= s.cfg.KeepAliveProbes {
		c.abort(ErrTimeout)
		return
	}
	c.kaProbes++
	s.Stats.Add(cTCPKeepaliveProbe, 1)
	p, seg := c.segment(tcpHdrSize)
	seg.Seq, seg.Ack, seg.HasAck, seg.Probe = c.sndNxt, c.rcvNxt, true, true
	s.send(p)
	c.armKeepAliveIn(75 * sim.Second)
}

// trimAcked drops fully acknowledged chunks from the front of the send
// queue; their bytes can never be retransmitted again.
func (c *Conn) trimAcked() {
	q := c.sndQ
	for c.sndTrim < len(q) && q[c.sndTrim].start+q[c.sndTrim].size <= c.sndUna {
		c.sndTrim++
	}
	if c.sndTrim > 4096 {
		c.sndQ = append([]chunk(nil), q[c.sndTrim:]...)
		c.sndTrim = 0
	}
}

// receiveData accepts in-order payload, buffers out-of-order segments and
// acknowledges every arrival (duplicate ACKs drive the sender's fast
// retransmit). It reports whether it parked p in c.oo.
func (c *Conn) receiveData(p *Packet) (parked bool) {
	seg := &p.tcp
	if seg.FIN && c.remoteFin < 0 {
		c.remoteFin = seg.Seq
	}
	switch {
	case seg.Len > 0 && seg.Seq == c.rcvNxt:
		c.acceptSegment(seg)
		// Drain contiguous out-of-order segments, each found afresh: it may
		// sit behind segments the stream has passed, and delivering can
		// re-enter the connection.
		for i, ok := c.parkedAt(c.rcvNxt); ok; i, ok = c.parkedAt(c.rcvNxt) {
			next := c.oo[i].p
			c.oo = slices.Delete(c.oo, i, i+1)
			next.Live(c.stack.sim, "drain")
			c.acceptSegment(&next.tcp)
			c.stack.release(next, "drain")
		}
		// What the stream has passed without landing on is never looked up
		// again: a go-back-N retransmission cut from sndUna can span the
		// first byte of a parked segment. Lowest first, so the order of the
		// free list repeats from run to run.
		passed, _ := c.parkedAt(c.rcvNxt)
		for _, o := range c.oo[:passed] {
			c.stack.release(o.p, "overtaken")
		}
		c.oo = slices.Delete(c.oo, 0, passed)
	case seg.Len > 0 && seg.Seq > c.rcvNxt:
		if i, dup := c.parkedAt(seg.Seq); dup {
			c.stack.release(c.oo[i].p, "replaced")
			c.oo[i].p = p
		} else {
			c.oo = slices.Insert(c.oo, i, ooSeg{seg.Seq, p})
		}
		parked = true
		c.stack.Stats.Add(cTCPOutOfOrder, 1)
	}
	if c.remoteFin >= 0 && c.rcvNxt == c.remoteFin {
		c.rcvNxt = c.remoteFin + 1 // consume the FIN
	}
	c.sendAck()
	c.maybeFinish()
	return parked
}

// parkedAt returns the index in oo of the first segment parked at at or
// above it, and whether one is parked at at.
func (c *Conn) parkedAt(at int) (int, bool) {
	return slices.BinarySearchFunc(c.oo, at, func(o ooSeg, at int) int { return cmp.Compare(o.at, at) })
}

func (c *Conn) acceptSegment(seg *tcpSegment) {
	c.rcvNxt = seg.Seq + seg.Len
	c.rcvBytes += seg.Len
	c.lastProgress = c.stack.sim.Now()
	for _, e := range seg.Ends {
		if c.onMessage != nil {
			c.onMessage(e.Size, e.Msg)
		}
	}
}

// maybeFinish completes teardown once both directions are done: the
// remote's FIN consumed, and (if we closed) our FIN acknowledged.
func (c *Conn) maybeFinish() {
	remoteDone := c.remoteFin >= 0 && c.rcvNxt == c.remoteFin+1
	if !remoteDone {
		return
	}
	if !c.closedLoc {
		// Remote closed first: flush our side and close too.
		c.Close()
		c.fireClose(nil)
		return
	}
	localDone := c.finSent && c.sndUna >= c.sndBytes+1
	if localDone && c.state != stateClosed {
		c.state = stateClosed
		c.rtoTimer.Cancel()
		c.kaTimer.Cancel()
		delete(c.stack.conns, c.key)
		c.stack.Stats.Add(cTCPClosed, 1)
		c.fireClose(nil)
	}
}
