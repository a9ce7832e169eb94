package vip

import (
	"fmt"

	"wow/internal/metrics"
	"wow/internal/sim"
)

// StackConfig tunes the transport layer. Zero values select defaults.
type StackConfig struct {
	// MSS is the TCP maximum segment payload in bytes.
	MSS int
	// Window is the TCP flow-control window in segments; cwnd never
	// exceeds it. The default (40 segments ≈ 56 KB at MSS 1400) gives
	// the wide-area window-limited throughput observed in Table II.
	Window int
	// GiveUp abandons a connection after this much time without any
	// acknowledged progress. The default 15 minutes lets connections
	// survive the ~8 minute migration outages of §V-C, as real TCP
	// stacks did in the paper's experiments.
	GiveUp sim.Duration
	// KeepAliveIdle starts keepalive probing on a connection idle this
	// long; after KeepAliveProbes unanswered probes the connection
	// aborts with ErrTimeout. The default mirrors Linux: 2 hours idle,
	// 9 probes at 75 s — long enough that migration outages pass
	// unnoticed (as the paper's NFS/PBS sessions did), short enough
	// that crashed peers are eventually cleaned up. Negative disables.
	KeepAliveIdle   sim.Duration
	KeepAliveProbes int
}

func (c *StackConfig) fillDefaults() {
	if c.MSS == 0 {
		c.MSS = 1400
	}
	if c.Window == 0 {
		c.Window = 40
	}
	if c.GiveUp == 0 {
		c.GiveUp = 15 * sim.Minute
	}
	if c.KeepAliveIdle == 0 {
		c.KeepAliveIdle = 2 * sim.Hour
	}
	if c.KeepAliveProbes == 0 {
		c.KeepAliveProbes = 9
	}
}

// Stack is a per-node virtual IP endpoint: ICMP echo responder, UDP ports
// and TCP connections, all tunnelled through a Carrier.
type Stack struct {
	carrier Carrier
	cfg     StackConfig
	sim     *sim.Simulator
	// pool is the free lists of the shard sim drives (see shardPool). Like
	// sim it is fixed when the stack is built: a stack stays on one shard
	// even when its carrier moves hosts.
	pool *shardPool

	pingID    uint64
	pingSeq   int
	pings     map[uint64]*pingState
	udp       map[uint16]UDPHandler
	listeners map[uint16]func(*Conn)
	conns     map[connKey]*Conn
	nextPort  uint16

	// Stats counts stack events (packets in/out, retransmits, resets).
	Stats metrics.Counter
}

// UDPHandler receives a datagram's source address and payload.
type UDPHandler func(src IP, srcPort uint16, size int, msg any)

// pingState is one echo request awaiting its reply. It is the argument of
// its own timeout event and is pooled with the packets (shardPool), so a
// ping allocates nothing.
type pingState struct {
	stack   *Stack
	id      uint64
	cb      func(ok bool, rtt sim.Duration)
	timeout sim.Timer

	sim.Pooled
}

// shardPool holds the free lists of one shard's virtual-IP packets and ping
// states (DESIGN.md §6, "Who owns a packet"). Every stack of the shard
// shares it and only the shard's goroutine touches it, so it needs no lock;
// NewStack finds it on the Simulator behind Carrier.Clock
// (sim.Simulator.Local). What one stack releases the next sender on the
// shard takes, so while traffic stays on the shard the list is as long as the
// most packets the shard ever had in flight and no stack hoards the ACKs its
// transfers brought home; across shards it holds the largest excess of
// releases over acquires the shard has seen, which a transfer's returning
// ACKs keep small. The lists are sim.FreeLists; -tags packetdebug swaps in
// the one that reuses nothing and panics on misuse. A cache line of
// padding on each side keeps the pools of two shards off each other's
// lines (DESIGN.md §9, "Per-shard state owns its cache lines").
type shardPool struct {
	_     [sim.CacheLine]byte
	pkts  sim.FreeList[Packet, *Packet]
	pings sim.FreeList[pingState, *pingState]
	_     [sim.CacheLine]byte
}

// shardPoolKey is the pool's key among its Simulator's locals.
type shardPoolKey struct{}

func newShardPool(s *sim.Simulator) any {
	return &shardPool{
		pkts: sim.NewFreeList[Packet](s, "packet", Packet{Size: -1, Proto: 0xff,
			tcp: tcpSegment{Ends: []chunkEnd{{End: -1, Size: -1, Msg: "vip: use of released packet"}}}}),
		pings: sim.NewFreeList[pingState](s, "ping state", pingState{}),
	}
}

// NewStack creates a stack over the carrier.
func NewStack(carrier Carrier, cfg StackConfig) *Stack {
	cfg.fillDefaults()
	clock := carrier.Clock()
	s := &Stack{
		carrier:   carrier,
		cfg:       cfg,
		sim:       clock,
		pool:      clock.Local(shardPoolKey{}, newShardPool).(*shardPool),
		pings:     make(map[uint64]*pingState),
		udp:       make(map[uint16]UDPHandler),
		listeners: make(map[uint16]func(*Conn)),
		conns:     make(map[connKey]*Conn),
		nextPort:  32768,
		Stats:     Counters.New(),
	}
	carrier.SetReceiver(s.receive)
	return s
}

// IP returns the stack's virtual address.
func (s *Stack) IP() IP { return s.carrier.LocalVIP() }

// Sim returns the simulation clock.
func (s *Stack) Sim() *sim.Simulator { return s.sim }

// packet takes a packet from the shard's list and addresses it from this
// stack to dst; the caller fills in the transport header.
func (s *Stack) packet(dst IP, proto Proto, size int) *Packet {
	s.checkShard("acquire")
	p := s.pool.pkts.Get()
	p.Src, p.Dst, p.Proto, p.Size = s.IP(), dst, proto, size
	return p
}

// release ends the life of a packet the stack took from a list: it goes on
// the shard's list blank but for the backing array of its Ends, so the list
// pins no message and the next sender finds nothing of this one in it. A
// packet built outside the stack passes through untouched. where names the
// site for the packetdebug list.
func (s *Stack) release(p *Packet, where string) {
	ends := p.tcp.Ends
	if s.pool.pkts.Put(p, where) && !sim.PoolDebug {
		clear(ends)
		p.tcp.Ends = ends[:0]
	}
	s.checkShard(where)
}

// checkShard is the packetdebug build's check that the stack is still driven
// by the Simulator whose lists it holds: a stack whose carrier has moved to a
// host of another shard would run on that shard's goroutine and share this
// shard's lists with it. Which goroutine actually runs is the race
// detector's to say; CI runs that build under -race.
func (s *Stack) checkShard(where string) {
	if sim.PoolDebug && s.carrier.Clock() != s.sim {
		panic("vip: " + where + " on a stack whose carrier runs on another shard than its pool")
	}
}

func (s *Stack) send(p *Packet) {
	p.Live(s.sim, "send")
	s.Stats.Add(cIPOut, 1)
	s.carrier.SendIP(p)
}

// receive is the carrier's upcall and the end of a packet's life: whatever
// the handler did with it, the packet goes back on the shard's list when the
// handler returns — unless the handler kept it, which only two do: the echo
// responder, which sends the request back as the reply, and a connection
// that parks an out-of-order segment (Conn.oo).
func (s *Stack) receive(p *Packet) {
	p.Live(s.sim, "receive")
	if !s.dispatch(p) {
		s.release(p, "receive")
	}
}

// dispatch hands p to its protocol's handler and reports whether the handler
// kept the packet.
func (s *Stack) dispatch(p *Packet) (kept bool) {
	if p.Dst != s.IP() {
		s.Stats.Add(cIPMisdelivered, 1)
		return false
	}
	s.Stats.Add(cIPIn, 1)
	switch p.Proto {
	case ProtoICMP:
		return s.handleICMP(p)
	case ProtoUDP:
		s.handleUDP(p)
	case ProtoTCP:
		return s.handleTCP(p)
	default:
		s.Stats.Add(cIPUnknownProto, 1)
	}
	return false
}

// Ping sends one ICMP echo request of the given payload size and invokes
// cb with the outcome: ok=false after timeout (a dropped request or
// reply), mirroring how the paper's ping-based join profiles (Fig. 4/5)
// are measured.
func (s *Stack) Ping(dst IP, size int, timeout sim.Duration, cb func(ok bool, rtt sim.Duration)) {
	s.pingID++
	s.pingSeq++
	st := s.pool.pings.Get()
	st.stack, st.id, st.cb = s, s.pingID, cb
	s.pings[st.id] = st
	st.timeout = s.sim.AtArg(s.sim.Now().Add(timeout), pingTimedOut, st)
	p := s.packet(dst, ProtoICMP, ipHdrSize+icmpHdrSize+size)
	p.icmp = icmpEcho{ID: st.id, Seq: s.pingSeq, Sent: s.sim.Now()}
	s.send(p)
	s.Stats.Add(cICMPSent, 1)
}

// finishPing retires an echo's state, answered or timed out, and returns
// its callback.
func (s *Stack) finishPing(st *pingState) func(ok bool, rtt sim.Duration) {
	cb := st.cb
	delete(s.pings, st.id)
	s.pool.pings.Put(st, "finishPing")
	return cb
}

// pingTimedOut is the echo timeout's callback (see sim.AtArg); a reply
// cancels the event, so it only ever fires for an echo still waiting.
func pingTimedOut(arg any) {
	st := arg.(*pingState)
	s := st.stack
	cb := s.finishPing(st)
	s.Stats.Add(cICMPTimeout, 1)
	cb(false, 0)
}

func (s *Stack) handleICMP(p *Packet) (kept bool) {
	echo := &p.icmp
	if !echo.Reply {
		// The request becomes the reply in place and goes back as the same
		// packet; the pinging stack releases it.
		echo.Reply = true
		p.Src, p.Dst = s.IP(), p.Src
		s.send(p)
		return true
	}
	if st, live := s.pings[echo.ID]; live {
		st.timeout.Cancel()
		cb := s.finishPing(st)
		s.Stats.Add(cICMPReplied, 1)
		cb(true, s.sim.Now().Sub(echo.Sent))
	}
	return false
}

// ListenUDP binds a datagram handler to a port.
func (s *Stack) ListenUDP(port uint16, h UDPHandler) error {
	if _, taken := s.udp[port]; taken {
		return fmt.Errorf("vip: UDP port %d already bound on %s", port, s.IP())
	}
	s.udp[port] = h
	return nil
}

// SendUDP transmits one datagram. size is the payload size in bytes.
func (s *Stack) SendUDP(dst IP, srcPort, dstPort uint16, size int, msg any) {
	p := s.packet(dst, ProtoUDP, ipHdrSize+udpHdrSize+size)
	p.udp = udpDatagram{SrcPort: srcPort, DstPort: dstPort, Msg: msg}
	s.send(p)
}

func (s *Stack) handleUDP(p *Packet) {
	d := &p.udp
	if h, bound := s.udp[d.DstPort]; bound {
		h(p.Src, d.SrcPort, p.Size-ipHdrSize-udpHdrSize, d.Msg)
	} else {
		s.Stats.Add(cUDPUnbound, 1)
	}
}

// ephemeralPort allocates a client-side TCP port.
func (s *Stack) ephemeralPort() uint16 {
	for {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 32768
		}
		inUse := false
		for k := range s.conns {
			if k.localPort == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
}
