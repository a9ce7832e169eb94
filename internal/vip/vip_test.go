package vip

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wow/internal/sim"
)

// pipeCarrier is a test Carrier: a direct wire between two stacks with
// latency, loss probability, bandwidth and an up/down switch — enough to
// exercise ICMP/UDP/TCP behaviour without an overlay underneath.
type pipeCarrier struct {
	ip      IP
	s       *sim.Simulator
	peer    *pipeCarrier
	recv    func(*Packet)
	latency sim.Duration
	loss    float64
	bwBps   float64 // 0 = infinite
	busy    sim.Time
	up      bool
	rng     *rand.Rand
}

func newPipe(s *sim.Simulator, a, b IP, latency sim.Duration) (*pipeCarrier, *pipeCarrier) {
	rng := rand.New(rand.NewSource(42))
	ca := &pipeCarrier{ip: a, s: s, latency: latency, up: true, rng: rng}
	cb := &pipeCarrier{ip: b, s: s, latency: latency, up: true, rng: rng}
	ca.peer, cb.peer = cb, ca
	return ca, cb
}

func (c *pipeCarrier) LocalVIP() IP                { return c.ip }
func (c *pipeCarrier) Clock() *sim.Simulator       { return c.s }
func (c *pipeCarrier) SetReceiver(f func(*Packet)) { c.recv = f }
func (c *pipeCarrier) SendIP(p *Packet) {
	if !c.up || !c.peer.up {
		return
	}
	if c.loss > 0 && c.rng.Float64() < c.loss {
		return
	}
	depart := c.s.Now()
	if c.bwBps > 0 {
		tx := sim.Duration(float64(p.Size) / c.bwBps * float64(sim.Second))
		if c.busy > depart {
			depart = c.busy
		}
		depart = depart.Add(tx)
		c.busy = depart
	}
	peer := c.peer
	c.s.At(depart.Add(c.latency), func() {
		if peer.recv != nil && peer.up {
			peer.recv(p)
		}
	})
}

func pairedStacks(seed int64, latency sim.Duration, cfg StackConfig) (*sim.Simulator, *Stack, *Stack, *pipeCarrier, *pipeCarrier) {
	s := sim.New(seed)
	ca, cb := newPipe(s, MustParseIP("172.16.1.2"), MustParseIP("172.16.1.3"), latency)
	return s, NewStack(ca, cfg), NewStack(cb, cfg), ca, cb
}

func TestParseIP(t *testing.T) {
	ip := MustParseIP("172.16.1.2")
	if ip.String() != "172.16.1.2" {
		t.Fatalf("roundtrip %s", ip)
	}
	if _, err := ParseIP("172.16.1"); err == nil {
		t.Fatal("bad IP accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseIP did not panic")
		}
	}()
	MustParseIP("x")
}

func TestProtoString(t *testing.T) {
	if ProtoICMP.String() != "icmp" || ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" {
		t.Fatal("proto names")
	}
	if Proto(99).String() != "proto(99)" {
		t.Fatal("unknown proto")
	}
}

func TestPingRoundTrip(t *testing.T) {
	s, sa, _, _, _ := pairedStacks(1, 20*sim.Millisecond, StackConfig{})
	var rtt sim.Duration
	ok := false
	sa.Ping(MustParseIP("172.16.1.3"), 64, 5*sim.Second, func(o bool, r sim.Duration) { ok, rtt = o, r })
	s.Run()
	if !ok {
		t.Fatal("ping lost")
	}
	if rtt != 40*sim.Millisecond {
		t.Fatalf("rtt = %v, want 40ms", rtt)
	}
}

func TestPingTimeout(t *testing.T) {
	s, sa, _, ca, _ := pairedStacks(2, 20*sim.Millisecond, StackConfig{})
	ca.up = false
	timedOut := false
	sa.Ping(MustParseIP("172.16.1.3"), 64, sim.Second, func(o bool, r sim.Duration) { timedOut = !o })
	s.Run()
	if !timedOut {
		t.Fatal("ping did not time out")
	}
	if sa.Stats.Get("icmp.timeout") != 1 {
		t.Fatalf("stats = %v", sa.Stats.String())
	}
}

func TestUDPDelivery(t *testing.T) {
	s, sa, sb, _, _ := pairedStacks(3, sim.Millisecond, StackConfig{})
	var gotMsg any
	var gotSrc IP
	if err := sb.ListenUDP(53, func(src IP, sp uint16, size int, msg any) {
		gotSrc, gotMsg = src, msg
	}); err != nil {
		t.Fatal(err)
	}
	if err := sb.ListenUDP(53, nil); err == nil {
		t.Fatal("double UDP bind allowed")
	}
	sa.SendUDP(sb.IP(), 1000, 53, 100, "query")
	s.Run()
	if gotMsg != "query" || gotSrc != sa.IP() {
		t.Fatalf("got %v from %v", gotMsg, gotSrc)
	}
	sa.SendUDP(sb.IP(), 1000, 54, 100, "query2")
	s.Run()
	if sb.Stats.Get("udp.unbound") != 1 {
		t.Fatal("unbound UDP not counted")
	}
}

func TestTCPHandshakeAndMessages(t *testing.T) {
	s, sa, sb, _, _ := pairedStacks(4, 10*sim.Millisecond, StackConfig{})
	var got []any
	if err := sb.ListenTCP(80, func(c *Conn) {
		c.OnMessage(func(size int, msg any) { got = append(got, msg) })
	}); err != nil {
		t.Fatal(err)
	}
	if err := sb.ListenTCP(80, nil); err == nil {
		t.Fatal("double listen allowed")
	}
	c := sa.DialTCP(sb.IP(), 80)
	connected := false
	c.OnConnect(func() { connected = true })
	if err := c.Send(500, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(500, "world"); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Second)
	if !connected || c.state != stateEstablished {
		t.Fatal("handshake failed")
	}
	if len(got) != 2 || got[0] != "hello" || got[1] != "world" {
		t.Fatalf("messages = %v", got)
	}
	if c.AckedBytes() != 1000 {
		t.Fatalf("acked = %d", c.AckedBytes())
	}
}

func TestTCPLargeTransferNoLoss(t *testing.T) {
	s, sa, sb, _, _ := pairedStacks(5, 10*sim.Millisecond, StackConfig{})
	const total = 10 << 20 // 10 MB
	const chunkSize = 32 << 10
	var rcvd int
	var doneAt sim.Time
	sb.ListenTCP(22, func(c *Conn) {
		c.OnMessage(func(size int, msg any) {
			rcvd += size
			if rcvd == total {
				doneAt = s.Now()
			}
		})
	})
	c := sa.DialTCP(sb.IP(), 22)
	for sent := 0; sent < total; sent += chunkSize {
		c.Send(chunkSize, nil)
	}
	s.RunFor(2 * sim.Minute)
	if rcvd != total {
		t.Fatalf("received %d of %d", rcvd, total)
	}
	if c.Retransmits() != 0 {
		t.Fatalf("retransmits on lossless pipe: %d", c.Retransmits())
	}
	// Window-limited throughput: W/RTT = 34*1400/20ms ≈ 2.4 MB/s, so
	// 10 MB should take ~4.2s (plus slow start).
	el := doneAt.Seconds()
	if el < 3 || el > 10 {
		t.Fatalf("10MB over 20ms RTT took %.1fs, expected ~4-6s window-limited", el)
	}
}

func TestTCPThroughputIsWindowLimited(t *testing.T) {
	run := func(latency sim.Duration) float64 {
		s, sa, sb, _, _ := pairedStacks(6, latency, StackConfig{})
		const total = 4 << 20
		var rcvd int
		var doneAt sim.Time
		sb.ListenTCP(22, func(c *Conn) {
			c.OnMessage(func(size int, msg any) {
				rcvd += size
				if rcvd == total {
					doneAt = s.Now()
				}
			})
		})
		c := sa.DialTCP(sb.IP(), 22)
		for sent := 0; sent < total; sent += 16384 {
			c.Send(16384, nil)
		}
		s.RunFor(10 * sim.Minute)
		if rcvd != total {
			t.Fatalf("incomplete: %d", rcvd)
		}
		return float64(total) / doneAt.Seconds()
	}
	fast := run(5 * sim.Millisecond)
	slow := run(50 * sim.Millisecond)
	if fast < 3*slow {
		t.Fatalf("throughput not window limited: 10ms-RTT %.0f B/s vs 100ms-RTT %.0f B/s", fast, slow)
	}
}

func TestTCPLossRecovery(t *testing.T) {
	s, sa, sb, ca, cb := pairedStacks(7, 10*sim.Millisecond, StackConfig{})
	ca.loss, cb.loss = 0.02, 0.02
	const total = 1 << 20
	var rcvd int
	sb.ListenTCP(22, func(c *Conn) {
		c.OnMessage(func(size int, msg any) { rcvd += size })
	})
	c := sa.DialTCP(sb.IP(), 22)
	for sent := 0; sent < total; sent += 8192 {
		c.Send(8192, nil)
	}
	s.RunFor(10 * sim.Minute)
	if rcvd != total {
		t.Fatalf("lossy transfer incomplete: %d of %d (retransmits=%d)", rcvd, total, c.Retransmits())
	}
	if c.Retransmits() == 0 {
		t.Fatal("no retransmissions on 2% lossy pipe")
	}
}

func TestTCPInOrderDeliveryUnderLoss(t *testing.T) {
	s, sa, sb, ca, _ := pairedStacks(8, 10*sim.Millisecond, StackConfig{})
	ca.loss = 0.05
	var got []any
	sb.ListenTCP(22, func(c *Conn) {
		c.OnMessage(func(size int, msg any) { got = append(got, msg) })
	})
	c := sa.DialTCP(sb.IP(), 22)
	const n = 500
	for i := 0; i < n; i++ {
		c.Send(1000, i)
	}
	s.RunFor(10 * sim.Minute)
	if len(got) != n {
		t.Fatalf("got %d of %d messages", len(got), n)
	}
	for i, m := range got {
		if m != i {
			t.Fatalf("out of order at %d: %v", i, m)
		}
	}
}

func TestTCPSurvivesOutage(t *testing.T) {
	// The §V-C scenario: the path dies mid-transfer for several minutes
	// (VM migration) and the transfer resumes without application help.
	s, sa, sb, ca, cb := pairedStacks(9, 10*sim.Millisecond, StackConfig{})
	const total = 2 << 20
	var rcvd int
	sb.ListenTCP(22, func(c *Conn) {
		c.OnMessage(func(size int, msg any) { rcvd += size })
	})
	c := sa.DialTCP(sb.IP(), 22)
	for sent := 0; sent < total; sent += 16384 {
		c.Send(16384, nil)
	}
	s.RunFor(500 * sim.Millisecond)
	before := rcvd
	if before == 0 || before == total {
		t.Fatalf("outage window mistimed: rcvd=%d", before)
	}
	ca.up, cb.up = false, false
	s.RunFor(8 * sim.Minute) // paper's ~8 minute no-routability window
	if rcvd != before {
		t.Fatal("bytes moved during outage")
	}
	ca.up, cb.up = true, true
	s.RunFor(10 * sim.Minute)
	if rcvd != total {
		t.Fatalf("transfer did not resume: %d of %d", rcvd, total)
	}
	if closedErr := c.Closed(); closedErr {
		t.Fatal("connection aborted despite outage < GiveUp")
	}
}

func TestTCPGivesUpEventually(t *testing.T) {
	cfg := StackConfig{GiveUp: 2 * sim.Minute}
	s, sa, sb, ca, cb := pairedStacks(10, 10*sim.Millisecond, cfg)
	var closeErr error
	closed := false
	sb.ListenTCP(22, func(c *Conn) {})
	c := sa.DialTCP(sb.IP(), 22)
	c.OnClose(func(err error) { closed, closeErr = true, err })
	c.Send(1000, nil)
	s.RunFor(time500ms())
	ca.up, cb.up = false, false
	// Unacknowledged data must exist for the give-up clock to matter;
	// enqueue more once the path is dead.
	s.After(sim.Second, func() { c.Send(1000, nil) })
	s.RunFor(30 * sim.Minute)
	if !closed || closeErr != ErrTimeout {
		t.Fatalf("connection not aborted: closed=%v err=%v", closed, closeErr)
	}
	if err := c.Send(1, nil); err != ErrConnClosed {
		t.Fatalf("Send on dead conn: %v", err)
	}
}

func time500ms() sim.Duration { return 500 * sim.Millisecond }

func TestTCPCleanClose(t *testing.T) {
	s, sa, sb, _, _ := pairedStacks(11, 10*sim.Millisecond, StackConfig{})
	var serverClosed, clientClosed bool
	var serverErr, clientErr error
	sb.ListenTCP(22, func(c *Conn) {
		c.OnClose(func(err error) { serverClosed, serverErr = true, err })
	})
	c := sa.DialTCP(sb.IP(), 22)
	c.OnClose(func(err error) { clientClosed, clientErr = true, err })
	c.Send(5000, "payload")
	c.Close()
	s.RunFor(30 * sim.Second)
	if !serverClosed || serverErr != nil {
		t.Fatalf("server close: %v %v", serverClosed, serverErr)
	}
	if !clientClosed || clientErr != nil {
		t.Fatalf("client close: %v %v", clientClosed, clientErr)
	}
	if !c.Closed() {
		t.Fatal("client conn not closed")
	}
	if err := c.Send(1, nil); err != ErrConnClosed {
		t.Fatal("Send after Close allowed")
	}
}

func TestTCPDialToClosedPortTimesOut(t *testing.T) {
	cfg := StackConfig{GiveUp: sim.Minute}
	s, sa, sb, _, _ := pairedStacks(12, 10*sim.Millisecond, cfg)
	_ = sb
	var err error
	c := sa.DialTCP(sb.IP(), 9999)
	c.OnClose(func(e error) { err = e })
	s.RunFor(10 * sim.Minute)
	if err != ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	if sb.Stats.Get("tcp.no_conn") == 0 {
		t.Fatal("SYN to closed port not counted")
	}
}

func TestTCPZeroSizeMessage(t *testing.T) {
	s, sa, sb, _, _ := pairedStacks(13, sim.Millisecond, StackConfig{})
	var got bool
	sb.ListenTCP(1, func(c *Conn) {
		c.OnMessage(func(size int, msg any) { got = size >= 1 && msg == "m" })
	})
	c := sa.DialTCP(sb.IP(), 1)
	c.Send(0, "m") // clamped to 1 byte
	s.RunFor(5 * sim.Second)
	if !got {
		t.Fatal("zero-size message lost")
	}
}

func TestTCPManyConnections(t *testing.T) {
	s, sa, sb, _, _ := pairedStacks(14, sim.Millisecond, StackConfig{})
	rcvd := 0
	sb.ListenTCP(80, func(c *Conn) {
		c.OnMessage(func(size int, msg any) { rcvd++ })
	})
	var conns []*Conn
	for i := 0; i < 50; i++ {
		c := sa.DialTCP(sb.IP(), 80)
		c.Send(100, i)
		conns = append(conns, c)
	}
	s.RunFor(30 * sim.Second)
	if rcvd != 50 {
		t.Fatalf("rcvd %d of 50", rcvd)
	}
	ports := make(map[uint16]bool)
	for _, c := range conns {
		if ports[c.key.localPort] {
			t.Fatal("duplicate ephemeral port")
		}
		ports[c.key.localPort] = true
	}
}

func TestStackMisdeliveryCounted(t *testing.T) {
	s := sim.New(15)
	ca, _ := newPipe(s, MustParseIP("1.0.0.1"), MustParseIP("1.0.0.2"), 0)
	st := NewStack(ca, StackConfig{})
	st.Stats.Inc("noop", 0)
	// Inject a packet addressed elsewhere.
	ca.recv(&Packet{Src: MustParseIP("9.9.9.9"), Dst: MustParseIP("8.8.8.8"), Proto: ProtoICMP})
	if st.Stats.Get("ip.misdelivered") != 1 {
		t.Fatal("misdelivery not counted")
	}
}

// Property: any interleaving of message sizes arrives complete and in
// order over a lossy pipe.
func TestQuickTCPStreamIntegrity(t *testing.T) {
	f := func(sizes []uint16, lossSeed int64) bool {
		if len(sizes) == 0 || len(sizes) > 60 {
			return true
		}
		s, sa, sb, ca, _ := pairedStacks(lossSeed, 5*sim.Millisecond, StackConfig{})
		ca.loss = 0.03
		var got []int
		sb.ListenTCP(7, func(c *Conn) {
			c.OnMessage(func(size int, msg any) { got = append(got, msg.(int)) })
		})
		c := sa.DialTCP(sb.IP(), 7)
		for i, sz := range sizes {
			c.Send(int(sz)%5000, i)
		}
		s.RunFor(20 * sim.Minute)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPKeepAliveProbesAndReaping(t *testing.T) {
	cfg := StackConfig{KeepAliveIdle: 10 * sim.Minute, KeepAliveProbes: 3}
	s, sa, sb, ca, cb := pairedStacks(20, 10*sim.Millisecond, cfg)
	var closedErr error
	closed := false
	sb.ListenTCP(22, func(c *Conn) {})
	c := sa.DialTCP(sb.IP(), 22)
	c.OnClose(func(err error) { closed, closedErr = true, err })
	c.Send(100, nil)
	s.RunFor(5 * sim.Second)
	if c.state != stateEstablished {
		t.Fatal("handshake failed")
	}
	// Idle but alive: probes keep the connection up indefinitely.
	s.RunFor(30 * sim.Minute)
	if closed {
		t.Fatalf("idle conn with live peer aborted: %v", closedErr)
	}
	if sa.Stats.Get("tcp.keepalive_probe") == 0 {
		t.Fatal("no probes sent on idle conn")
	}
	// Peer dies silently (no unacked data): probes reap the conn.
	ca.up, cb.up = false, false
	s.RunFor(sim.Hour)
	if !closed || closedErr != ErrTimeout {
		t.Fatalf("dead idle peer not reaped: closed=%v err=%v", closed, closedErr)
	}
}

func TestTCPWindowClampAndConfig(t *testing.T) {
	cfg := StackConfig{Window: 4, MSS: 1000}
	s, sa, sb, _, _ := pairedStacks(21, 25*sim.Millisecond, cfg)
	if sa.cfg.Window != 4 || sa.cfg.MSS != 1000 {
		t.Fatalf("config not applied: %+v", sa.cfg)
	}
	const total = 1 << 20
	var rcvd int
	var doneAt sim.Time
	sb.ListenTCP(22, func(c *Conn) {
		c.OnMessage(func(size int, msg any) {
			rcvd += size
			if rcvd == total {
				doneAt = s.Now()
			}
		})
	})
	c := sa.DialTCP(sb.IP(), 22)
	for sent := 0; sent < total; sent += 16384 {
		c.Send(16384, nil)
	}
	s.RunFor(sim.Hour)
	if rcvd != total {
		t.Fatalf("incomplete: %d", rcvd)
	}
	// 4 segs × 1000 B / 50 ms RTT = 80 KB/s: the 1 MB takes ~13s.
	el := doneAt.Seconds()
	if el < 10 || el > 20 {
		t.Fatalf("tiny window transfer took %.1fs, want ~13s", el)
	}
}

// TestAllocFreeRTO guards the closure-free timers of an established
// connection with data in flight: re-arming the retransmission timer (once
// per segment on a transfer) and the keepalive timer allocates nothing.
func TestAllocFreeRTO(t *testing.T) {
	s, sa, sb, _, _ := pairedStacks(23, sim.Millisecond, StackConfig{})
	sb.ListenTCP(80, func(c *Conn) {})
	c := sa.DialTCP(sb.IP(), 80)
	s.RunFor(sim.Second)
	if c.state != stateEstablished {
		t.Fatal("handshake failed")
	}
	if err := c.Send(500, nil); err != nil || !c.outstanding() {
		t.Fatalf("nothing in flight after Send: %v", err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		c.armRTO()
		c.rtoTimer.Cancel()
		c.armRTO()
		c.armKeepAlive()
	})
	if !c.rtoTimer.Active() || !c.kaTimer.Active() {
		t.Fatal("timers not armed; measurement would be vacuous")
	}
	if avg != 0 {
		t.Errorf("arm + cancel + re-arm: %.2f allocs, want 0", avg)
	}
}
