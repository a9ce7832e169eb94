package phys

import (
	"fmt"
	"slices"

	"wow/internal/sim"
)

// Host is a physical machine: it owns UDP sockets, a CPU with a finite
// packet-processing rate, and an uplink with finite bandwidth. The paper's
// PlanetLab router nodes are modelled as hosts with high LoadFactor, which
// throttles multi-hop overlay paths exactly as observed in §V-B.
type Host struct {
	// The fields a packet hop reads come first, so that sending, receiving
	// and the socket search touch the struct's first two cache lines (and
	// the inline socket slots on the third) and nothing else of the host.
	net   *Network
	Site  *Site
	realm *Realm
	// shard/sim locate the host in the network: all of the host's events
	// run on shard's Simulator (shard 0 on a one-shard network).
	sim   *sim.Simulator
	shard int
	ip    IP
	up    bool
	// socks is the host's bound sockets in ascending key order (see
	// sockSlot), found by findSock. It starts out backed by sockArr — a
	// brunet router binds exactly two sockets, its UDP socket and its TCP
	// listener — and only a host that dials streams spills to the heap.
	socks []sockSlot
	cfg   HostConfig

	txBusyUntil  sim.Time // uplink serialization
	cpuBusyUntil sim.Time // receive-path CPU serialization

	// nextPorts is the next ephemeral port to try in each wire namespace
	// (indexed by wireIndex); zero means the counter is at its start.
	nextPorts [2]uint16
	sockArr   [2]sockSlot

	Name string
	// streams indexes the host's open streams by connection ID; the first
	// stream, dialled or accepted, makes it (addStream).
	streams map[uint64]*Stream
}

// sockSlot is one entry of a host's socket table. The key namespaces ports
// by wire protocol, as real hosts do — UDP port 5000 and TCP port 5000 are
// independent — and sits inline beside the pointer, so a search reads the
// table alone.
type sockSlot struct {
	key  uint32
	sock *UDPSock
}

// sockKey is the socket-table key of a port in a wire namespace.
func sockKey(proto uint8, port uint16) uint32 { return uint32(proto)<<16 | uint32(port) }

// wireIndex maps a wire protocol to its slot in the per-protocol arrays.
func wireIndex(proto uint8) int {
	if proto == WireTCP {
		return 1
	}
	return 0
}

// findSock returns the position of key in the socket table and whether it
// is bound; for an unbound key the position is where it would be inserted.
// The one search under every delivery, bind and close.
func (h *Host) findSock(key uint32) (int, bool) {
	s := h.socks
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo].key == key
}

// IP returns the host's address in its realm.
func (h *Host) IP() IP { return h.ip }

// Realm returns the address realm the host lives in.
func (h *Host) Realm() *Realm { return h.realm }

// Network returns the owning network.
func (h *Host) Network() *Network { return h.net }

// Sim returns the simulator driving this host's events, its shard's: the
// network's one clock when there is one shard. Protocol stacks
// schedule all their timers through it, which is what keeps a node's
// entire state machine on its own shard.
func (h *Host) Sim() *sim.Simulator { return h.sim }

// Shard reports the shard owning this host's events; 0 on a one-shard
// network.
func (h *Host) Shard() int { return h.shard }

// SetUp powers the host on or off. Packets to a downed host are lost;
// sockets survive power cycling (the owning process is assumed restarted by
// higher layers).
func (h *Host) SetUp(up bool) { h.up = up }

// String renders "name(ip@site)".
func (h *Host) String() string {
	return fmt.Sprintf("%s(%s@%s)", h.Name, h.ip, h.Site.Name)
}

// receive runs the destination-side pipeline: CPU service-time queueing
// with overload drops, then delivery to the bound socket.
func (h *Host) receive(p *Packet) {
	now := h.sim.Now()
	if !h.up {
		h.net.drop(h.shard, "lost.hostdown", p)
		return
	}
	svc := sim.Duration(float64(h.cfg.ServiceTime) * h.cfg.LoadFactor)
	start := now
	if h.cpuBusyUntil > start {
		start = h.cpuBusyUntil
	}
	if start.Sub(now) > h.cfg.QueueLimit {
		h.net.drop(h.shard, "lost.overload", p)
		return
	}
	done := start.Add(svc)
	h.cpuBusyUntil = done
	h.sim.AtArg(done, finishReceive, p)
}

// finishReceive is the CPU-service-done callback: package-level so AtArg
// schedules it without a closure allocation per packet. The destination
// host rides in the packet (set by Network.send). The packet returns to
// the pool when the socket's handler returns, so handlers must not retain
// it (see Packet).
func finishReceive(a any) {
	p := a.(*Packet)
	h := p.dest
	if !h.up {
		h.net.drop(h.shard, "lost.hostdown", p)
		return
	}
	// A socket in the table is open: Close takes it out.
	i, ok := h.findSock(sockKey(p.Proto, p.Dst.Port))
	if !ok {
		h.net.drop(h.shard, "lost.noport", p)
		return
	}
	h.net.shards[h.shard].delivered++
	if sock := h.socks[i].sock; sock.OnRecv != nil {
		sock.OnRecv(p)
	}
	h.net.shards[h.shard].pkts.Put(p, "finishReceive")
}

// UDPSock is a bound wire socket on a host. Despite the name it serves
// both wire namespaces: datagram sockets (WireUDP) and the segment
// endpoints underneath Streams (WireTCP).
type UDPSock struct {
	host   *Host
	proto  uint8
	port   uint16
	closed bool
	// OnRecv is invoked for every datagram delivered to the socket, with
	// Src reflecting whatever translations NATs applied en route — the
	// address a reply should target.
	OnRecv func(p *Packet)
}

// ErrPortInUse is returned when binding an already-bound port.
var ErrPortInUse = fmt.Errorf("phys: port already bound")

// Listen binds a UDP socket on the given port. Port 0 picks an ephemeral
// port.
func (h *Host) Listen(port uint16) (*UDPSock, error) {
	return h.listenWire(WireUDP, port)
}

// listenWire binds a socket in the given wire namespace, keeping the table
// sorted. The third socket moves the table from the inline slots to the
// heap (slices.Insert's doing); Close moves it back.
func (h *Host) listenWire(proto uint8, port uint16) (*UDPSock, error) {
	ephemeral := port == 0
	var i int
	for taken := true; taken; {
		if ephemeral {
			next := &h.nextPorts[wireIndex(proto)]
			if port = *next; port == 0 {
				port = 32768
			}
			*next = port + 1
		}
		if i, taken = h.findSock(sockKey(proto, port)); taken && !ephemeral {
			return nil, fmt.Errorf("%w: %d/%d on %s", ErrPortInUse, port, proto, h.Name)
		}
	}
	s := &UDPSock{host: h, proto: proto, port: port}
	h.socks = slices.Insert(h.socks, i, sockSlot{sockKey(proto, port), s})
	return s, nil
}

// Port returns the bound port.
func (s *UDPSock) Port() uint16 { return s.port }

// LocalEndpoint returns the socket's endpoint as seen inside its realm
// (private address when behind NAT).
func (s *UDPSock) LocalEndpoint() Endpoint {
	return Endpoint{IP: s.host.ip, Port: s.port}
}

// Send transmits a datagram of the given size to dst. Delivery (or loss)
// is scheduled on the simulator; Send never blocks.
func (s *UDPSock) Send(dst Endpoint, size int, payload any) {
	if s.closed || !s.host.up {
		return
	}
	p := s.host.net.shards[s.host.shard].pkts.Get()
	p.Src, p.Dst, p.Proto, p.Size, p.Payload = s.LocalEndpoint(), dst, s.proto, size, payload
	s.host.net.send(s.host, p)
}

// Close unbinds the socket. Packets in flight to it are dropped on arrival.
func (s *UDPSock) Close() {
	if s.closed {
		return
	}
	s.closed = true
	h := s.host
	i, _ := h.findSock(sockKey(s.proto, s.port))
	t := slices.Delete(h.socks, i, i+1) // zeroes the vacated slot
	if len(t) <= len(h.sockArr) && cap(t) > len(h.sockArr) {
		t = h.sockArr[:copy(h.sockArr[:], t)]
	}
	h.socks = t
}
