package phys

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wow/internal/sim"
	"wow/internal/trace"
)

func streamRig(seed int64, loss float64) (*sim.Simulator, *Network, *Host, *Host) {
	s := sim.New(seed)
	net := NewNetwork(s, func(a, b *Site) PathModel {
		return PathModel{OneWay: 10 * sim.Millisecond, Loss: loss}
	})
	sa, sb := net.AddSite("a"), net.AddSite("b")
	h1 := net.AddHost("h1", sa, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", sb, net.Root(), HostConfig{})
	return s, net, h1, h2
}

func TestStreamHandshakeAndMessages(t *testing.T) {
	s, _, h1, h2 := streamRig(1, 0)
	var got []any
	if _, err := h2.ListenStream(7000, func(st *Stream) {
		st.OnMessage(func(size int, payload any) { got = append(got, payload) })
	}); err != nil {
		t.Fatal(err)
	}
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	st.SendMsg(100, "a")
	st.SendMsg(100, "b")
	s.RunFor(5 * sim.Second)
	if st.state != streamOpen {
		t.Fatal("handshake failed")
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}

func TestStreamInOrderUnderLoss(t *testing.T) {
	s, _, h1, h2 := streamRig(2, 0.1)
	var got []any
	h2.ListenStream(7000, func(st *Stream) {
		st.OnMessage(func(size int, payload any) { got = append(got, payload) })
	})
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	const n = 300
	for i := 0; i < n; i++ {
		st.SendMsg(500, i)
	}
	s.RunFor(5 * sim.Minute)
	if len(got) != n {
		t.Fatalf("delivered %d of %d over 10%% lossy path", len(got), n)
	}
	for i, m := range got {
		if m != i {
			t.Fatalf("out of order at %d: %v", i, m)
		}
	}
}

func TestStreamWindowQueues(t *testing.T) {
	s, _, h1, h2 := streamRig(3, 0)
	got := 0
	h2.ListenStream(7000, func(st *Stream) {
		st.OnMessage(func(size int, payload any) { got++ })
	})
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	for i := 0; i < 500; i++ { // far beyond the 64-message window
		st.SendMsg(100, i)
	}
	s.RunFor(sim.Minute)
	if got != 500 {
		t.Fatalf("delivered %d of 500", got)
	}
}

func TestStreamDialUnboundPortTimesOut(t *testing.T) {
	// No socket is bound, so nothing can send an RST; the SYN
	// retransmissions give up with a timeout (a silently-dropping
	// firewall looks the same way to real TCP).
	s, _, h1, h2 := streamRig(4, 0)
	var err error
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 9999})
	st.OnClose(func(e error) { err = e })
	s.RunFor(5 * sim.Minute)
	if err != ErrStreamTimeout {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestStreamRefusedWhenListenerDeregistered(t *testing.T) {
	// Closing a listener takes its socket out of the host's socket table,
	// which is the only registration a listener has: nothing is left on
	// the port to answer with an RST, so every SYN is dropped for want of
	// a socket and the dial times out.
	s, net, h1, h2 := streamRig(5, 0)
	l, _ := h2.ListenStream(7000, func(st *Stream) {})
	l.Close()
	var err error
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	st.OnClose(func(e error) { err = e })
	s.RunFor(5 * sim.Minute)
	if err != ErrStreamTimeout {
		t.Fatalf("err = %v, want timeout", err)
	}
	// The first SYN and its eight retransmissions before the dialer gives up.
	if lost := stat(net, "lost.noport"); lost != 9 {
		t.Fatalf("lost.noport = %d, want the dial's 9 SYNs", lost)
	}
}

func TestStreamTimesOutOnDeadPeer(t *testing.T) {
	s, _, h1, h2 := streamRig(6, 0)
	h2.ListenStream(7000, func(st *Stream) {})
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	var err error
	st.OnClose(func(e error) { err = e })
	s.RunFor(5 * sim.Second)
	if st.state != streamOpen {
		t.Fatal("handshake failed")
	}
	h2.SetUp(false)
	st.SendMsg(100, "x")
	s.RunFor(10 * sim.Minute)
	if err != ErrStreamTimeout {
		t.Fatalf("err = %v, want timeout", err)
	}
}

// TestStreamReorderBuffer: segments that arrive out of order, some twice,
// are each delivered once and in sequence once the gap before them fills.
func TestStreamReorderBuffer(t *testing.T) {
	s, _, h1, h2 := streamRig(12, 0)
	h2.ListenStream(7000, func(*Stream) {})
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	var got []any
	st.OnMessage(func(_ int, payload any) { got = append(got, payload) })
	s.RunFor(sim.Second)
	for _, seq := range []uint64{3, 5, 3, 5, 4, 2, 1} {
		st.acceptSeg(&streamSeg{ConnID: st.connID, Seq: seq, Size: 10, Payload: seq})
	}
	if fmt.Sprint(got) != "[1 2 3 4 5]" || len(st.oo) != 0 {
		t.Fatalf("delivered %v with %d segments still held, want [1 2 3 4 5] and none", got, len(st.oo))
	}
}

// tracedMsg is an overlay payload carrying a trace context.
type tracedMsg struct{ id uint64 }

func (m *tracedMsg) TraceContext() (uint64, sim.Time) { return m.id, 0 }
func (m *tracedMsg) ClearTrace()                      { m.id = 0 }

// TestStreamAbortDiscardsBuffers: a traced stream that dies holding messages
// in its window, segments in its reorder buffer and messages queued behind
// the window gives each traced payload exactly one phys.stream_abort
// terminal — the window's by sequence, then the reorder buffer's by
// sequence, then the queue's — and an untraced payload none.
func TestStreamAbortDiscardsBuffers(t *testing.T) {
	s, net, h1, h2 := streamRig(11, 0)
	net.FlightRecorder = trace.New(trace.Options{}, s)
	h2.ListenStream(7000, func(*Stream) {})
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	var closeErr error
	st.OnClose(func(err error) { closeErr = err })
	s.RunFor(sim.Second)
	if st.state != streamOpen {
		t.Fatal("handshake failed")
	}
	net.Perturb = func(_, _ *Host, pm PathModel) (PathModel, bool) { return pm, true }

	var want []uint64
	for i := 1; i <= streamWindow+3; i++ {
		id := uint64(i)
		if i == 2 {
			st.SendMsg(10, nil) // untraced
			continue
		}
		st.SendMsg(10, &tracedMsg{id})
		if i <= streamWindow {
			want = append(want, id)
		}
	}
	// Out of order and once twice, as a retransmission would arrive: the
	// reorder buffer holds seqs 3 and 5, one entry each.
	held := map[uint64]*tracedMsg{3: {1003}, 5: {1005}}
	for _, seq := range []uint64{5, 3, 5} {
		st.acceptSeg(&streamSeg{ConnID: st.connID, Seq: seq, Size: 10, Payload: held[seq]})
	}
	want = append(want, 1003, 1005, streamWindow+1, streamWindow+2, streamWindow+3)

	s.RunFor(10 * sim.Minute)
	if st.state != streamClosed || closeErr != ErrStreamTimeout {
		t.Fatalf("stream state %d, closed with %v; want timed out", st.state, closeErr)
	}
	var got []uint64
	for _, r := range net.FlightRecorder.Drain() {
		if r.Stream != trace.StreamRoute || r.Outcome != trace.OutcomePhysicalDrop+"stream_abort" {
			t.Fatalf("unexpected record %+v", r)
		}
		got = append(got, r.Trace)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stream_abort terminals for traces\n%v\nwant\n%v", got, want)
	}
}

func TestStreamCleanClose(t *testing.T) {
	s, _, h1, h2 := streamRig(7, 0)
	var serverErr error = ErrStreamTimeout
	serverClosed := false
	h2.ListenStream(7000, func(st *Stream) {
		st.OnClose(func(e error) { serverClosed, serverErr = true, e })
	})
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	var clientErr error = ErrStreamTimeout
	st.OnClose(func(e error) { clientErr = e })
	st.SendMsg(1000, "bye")
	st.Close()
	s.RunFor(sim.Minute)
	if !serverClosed || serverErr != nil || clientErr != nil {
		t.Fatalf("close: server=%v/%v client=%v", serverClosed, serverErr, clientErr)
	}
	// Sending after close is a silent no-op.
	st.SendMsg(1, "late")
}

func TestStreamThroughNAT(t *testing.T) {
	// A TCP-namespace flow through a NAT-like boundary: verified at the
	// natsim level too, but here check the stream layer tracks the
	// translated endpoints.
	s, net, h1, _ := streamRig(8, 0)
	site := net.AddSite("private")
	nat := &fakeNAT{public: net.Root().NextIP()}
	realm := net.AddRealm("lan", net.Root(), nat, MustParseIP("10.9.0.1"))
	inside := net.AddHost("inside", site, realm, HostConfig{})

	var observed Endpoint
	got := 0
	h1.ListenStream(7000, func(st *Stream) {
		observed = st.RemoteEndpoint()
		st.OnMessage(func(size int, payload any) { got++ })
	})
	st := inside.DialStream(Endpoint{IP: h1.IP(), Port: 7000})
	st.SendMsg(100, "hello")
	s.RunFor(sim.Minute)
	if got != 1 {
		t.Fatal("message did not traverse boundary")
	}
	if observed.IP != nat.public {
		t.Fatalf("listener saw %v, want NAT public IP %v", observed, nat.public)
	}
}

// fakeNAT is a minimal full-cone NAT for phys-level tests (natsim has the
// real ones; phys cannot import it without a cycle).
type fakeNAT struct {
	public phys_IP
	inner  *Realm
	ports  map[uint16]Endpoint
	rev    map[endpointKey]uint16
	next   uint16
}

type phys_IP = IP
type endpointKey struct {
	proto uint8
	ep    Endpoint
}

func (f *fakeNAT) Attach(inner, outer *Realm) { f.inner = inner }
func (f *fakeNAT) Claims(ip IP) bool          { return ip == f.public }
func (f *fakeNAT) Outbound(now sim.Time, p *Packet) bool {
	if f.ports == nil {
		f.ports = make(map[uint16]Endpoint)
		f.rev = make(map[endpointKey]uint16)
		f.next = 2000
	}
	k := endpointKey{p.Proto, p.Src}
	port, ok := f.rev[k]
	if !ok {
		port = f.next
		f.next++
		f.rev[k] = port
		f.ports[port] = p.Src
	}
	p.Src = Endpoint{IP: f.public, Port: port}
	return true
}
func (f *fakeNAT) Inbound(now sim.Time, p *Packet) bool {
	inner, ok := f.ports[p.Dst.Port]
	if !ok {
		return false
	}
	p.Dst = inner
	return true
}

func TestUDPAndTCPPortNamespacesIndependent(t *testing.T) {
	s, _, h1, _ := streamRig(9, 0)
	if _, err := h1.Listen(5000); err != nil {
		t.Fatal(err)
	}
	// The same numeric port is free in the TCP namespace.
	if _, err := h1.ListenStream(5000, func(*Stream) {}); err != nil {
		t.Fatalf("TCP port 5000 blocked by UDP binding: %v", err)
	}
	if _, err := h1.ListenStream(5000, func(*Stream) {}); err == nil {
		t.Fatal("double TCP bind allowed")
	}
	_ = s
}

// Property: any sequence of message sizes over any loss rate up to 20%
// arrives complete and in order.
func TestQuickStreamIntegrity(t *testing.T) {
	f := func(sizes []uint16, seedRaw uint32, lossRaw uint8) bool {
		if len(sizes) == 0 || len(sizes) > 80 {
			return true
		}
		loss := float64(lossRaw%21) / 100
		s, _, h1, h2 := streamRig(int64(seedRaw)+1, loss)
		var got []int
		h2.ListenStream(7000, func(st *Stream) {
			st.OnMessage(func(size int, payload any) { got = append(got, payload.(int)) })
		})
		st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
		for i := range sizes {
			st.SendMsg(int(sizes[i])%4000+1, i)
		}
		s.RunFor(30 * sim.Minute)
		if len(got) != len(sizes) {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocFreeRTO guards the closure-free retransmission timer of an open
// stream with a message unacknowledged: arming, cancelling and re-arming
// allocates nothing.
func TestAllocFreeRTO(t *testing.T) {
	s, _, h1, h2 := streamRig(9, 0)
	h2.ListenStream(7000, func(st *Stream) {})
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	s.RunFor(sim.Second)
	if st.state != streamOpen {
		t.Fatal("handshake failed")
	}
	st.SendMsg(100, nil)
	if st.inFlight == 0 {
		t.Fatal("nothing unacknowledged after SendMsg")
	}
	avg := testing.AllocsPerRun(1000, func() {
		st.armRTO()
		st.rtoTimer.Cancel()
		st.armRTO()
	})
	if !st.rtoTimer.Active() {
		t.Fatal("timer not armed; measurement would be vacuous")
	}
	if avg != 0 {
		t.Errorf("arm + cancel + re-arm: %.2f allocs, want 0", avg)
	}
}

// TestListenStreamAllocs guards what a host that never streams keeps: its
// first ListenStream allocates the socket, the listener and the socket's
// receive closure, and the host has no stream index until its first stream,
// dialled or accepted.
func TestListenStreamAllocs(t *testing.T) {
	s, net, h1, h2 := streamRig(10, 0)
	site := net.AddSite("c")
	hosts := make([]*Host, 101) // AllocsPerRun's warm-up run takes one too
	for i := range hosts {
		hosts[i] = net.AddHost(fmt.Sprintf("l%d", i), site, net.Root(), HostConfig{})
	}
	accept := func(*Stream) {}
	next := 0
	avg := testing.AllocsPerRun(len(hosts)-1, func() {
		if _, err := hosts[next].ListenStream(7000, accept); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if raceEnabled || sim.PoolDebug {
		t.Logf("allocs per first ListenStream under -race or packetdebug: %.2f (not asserted)", avg)
	} else if avg > 3 {
		t.Errorf("a host's first ListenStream: %.2f allocs, want at most 3", avg)
	}

	if _, err := h2.ListenStream(7000, accept); err != nil {
		t.Fatal(err)
	}
	if h1.streams != nil || h2.streams != nil || hosts[0].streams != nil {
		t.Fatal("a host that has no stream has a stream index")
	}
	st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	if h1.streams[st.connID] != st {
		t.Fatal("dialled stream not indexed")
	}
	s.RunFor(sim.Second)
	if st.state != streamOpen || len(h2.streams) != 1 {
		t.Fatalf("open %v, %d accepted streams indexed, want 1", st.state == streamOpen, len(h2.streams))
	}
}

// TestDoomedDialAllocs guards what a dial to an endpoint that never answers
// costs, from DialStream through every SYN retransmission to the abort: the
// Stream, its socket and the k segments SendMsg queued behind the handshake,
// and nothing else — no reaper, receive closure or send-queue growth, and
// nothing per SYN. The connection IDs are past 255, where a SYN boxed as a
// value would allocate each time it is sent.
func TestDoomedDialAllocs(t *testing.T) {
	s, net, h1, h2 := streamRig(13, 0)
	net.shards[h1.shard].dialed = 1000
	const k = streamInline
	dial := func() {
		st := h1.DialStream(Endpoint{IP: h2.IP(), Port: 9999}) // nothing bound: every SYN is lost
		for i := 0; i < k; i++ {
			st.SendMsg(100, nil)
		}
		s.RunFor(10 * sim.Minute)
		if st.state != streamClosed || st.retries != 9 || st.connID <= 255 {
			t.Fatalf("dial %d: state %d after %d timeouts, want closed after 9", st.connID, st.state, st.retries)
		}
	}
	dial() // the host's stream index and the simulator's event storage
	avg := testing.AllocsPerRun(20, dial)
	if raceEnabled || sim.PoolDebug {
		t.Logf("allocs per doomed dial under -race or packetdebug: %.2f (not asserted)", avg)
	} else if want := float64(2 + k); avg != want {
		t.Errorf("a doomed dial with %d messages queued: %.2f allocs, want %v (the Stream, its socket, the segments)", k, avg, want)
	}
	if lost := stat(net, "lost.noport"); lost != 9*22 {
		t.Fatalf("lost.noport = %d, want 9 SYNs from each of 22 dials", lost)
	}
}

// TestStreamIdleReap: an open stream that carries nothing is aborted with
// ErrStreamTimeout at both ends once streamIdleReap has passed since its last
// traffic, and no later than one jittered reaper tick after that; the
// teardown leaves nothing of the stream pending in the simulator. A stream
// that carries a message a minute is never reaped.
func TestStreamIdleReap(t *testing.T) {
	s, _, h1, h2 := streamRig(14, 0)
	type end struct {
		st  *Stream
		at  sim.Time
		err error
	}
	var accepted *end
	h2.ListenStream(7000, func(st *Stream) {
		e := &end{st: st}
		accepted = e
		st.OnClose(func(err error) { e.at, e.err = s.Now(), err })
	})

	before := s.Pending()
	idle := &end{st: h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})}
	idle.st.OnClose(func(err error) { idle.at, idle.err = s.Now(), err })
	s.RunFor(sim.Second)
	if idle.st.state != streamOpen || accepted == nil {
		t.Fatal("handshake failed")
	}
	reaped := accepted
	s.RunFor(15 * sim.Minute)
	const tick = streamIdleReap/2 + streamIdleReap/10 // the longest jittered interval
	for name, e := range map[string]*end{"dialer": idle, "acceptor": reaped} {
		since := e.at.Sub(e.st.lastActivity)
		if e.err != ErrStreamTimeout || since <= streamIdleReap || since > streamIdleReap+tick {
			t.Errorf("idle %s closed with %v %v after its last traffic, want %v in (%v, %v]",
				name, e.err, since, ErrStreamTimeout, streamIdleReap, streamIdleReap+tick)
		}
	}
	if got := s.Pending(); got != before {
		t.Errorf("%d events pending after both ends were reaped, %d before the dial", got, before)
	}

	busy := h1.DialStream(Endpoint{IP: h2.IP(), Port: 7000})
	var busyErr error
	busyClosed := false
	busy.OnClose(func(err error) { busyClosed, busyErr = true, err })
	for i := 0; i < 30; i++ {
		busy.SendMsg(10, nil)
		s.RunFor(sim.Minute)
	}
	if busyClosed || accepted.err != nil || accepted == reaped {
		t.Fatalf("a stream with a message a minute: dialer closed=%v (%v), acceptor closed with %v",
			busyClosed, busyErr, accepted.err)
	}
}
