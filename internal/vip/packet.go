// Package vip implements the virtual IP stack that WOW guests use over the
// IPOP tunnel: IPv4-like packets, ICMP echo, UDP datagrams, and a reliable
// TCP-lite transport with slow start, AIMD congestion control and
// exponential-backoff retransmission.
//
// The paper's point is that *unmodified* TCP/IP middleware (NFS, SSH, PBS,
// PVM) runs over the virtual network and survives multi-minute
// connectivity outages during VM migration; this stack reproduces the
// relevant transport behaviour — window-limited throughput, loss recovery,
// and patience across outages — without re-implementing a kernel.
package vip

import (
	"fmt"
	"strconv"
	"strings"

	"wow/internal/sim"
)

// IP is a virtual IPv4 address on the WOW private network (the paper's
// 172.16.1.x space).
type IP uint32

// String renders dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// ParseIP parses a dotted quad.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("vip: invalid IP %q", s)
	}
	var ip IP
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("vip: invalid IP %q", s)
		}
		ip = ip<<8 | IP(v)
	}
	return ip, nil
}

// MustParseIP is ParseIP that panics on malformed input.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Proto identifies the transport protocol of a virtual IP packet.
type Proto uint8

// Transport protocol numbers (matching IANA for familiarity).
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String names the protocol.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// Packet is one virtual IP packet. Size includes header overhead and
// drives transmission-time modelling in the physical substrate underneath
// the tunnel.
//
// The transport header rides inside the packet — Proto says which of the
// three is meant — so a packet is one object from the stack that emits it to
// the stack that receives it, and that object is pooled per shard
// (shardPool): the sending stack takes it from its shard's free list and the
// receiving stack puts it on its own when its handler returns. A Carrier
// hands the pointer on and keeps nothing; a handler keeps nothing either,
// with one exception, a TCP segment that arrived ahead of its turn and waits
// in Conn.oo. A packet whose overlay packet the physical layer loses goes
// on the list of the shard that lost it (Discard, called through the overlay
// packet's own). One the carrier drops itself, misroutes or delivers to
// nobody is the garbage collector's. Packets built outside the stack are
// never put on a list.
type Packet struct {
	Src, Dst IP
	Proto    Proto
	Size     int

	tcp  tcpSegment
	icmp icmpEcho
	udp  udpDatagram

	sim.Pooled
}

// Header sizes in bytes.
const (
	ipHdrSize   = 20
	tcpHdrSize  = 20
	udpHdrSize  = 8
	icmpHdrSize = 8
)

// Carrier is the tunnel underneath the stack; internal/ipop implements it
// over the Brunet overlay. A Carrier may be killed and restarted (VM
// migration) without the Stack noticing anything but packet loss.
type Carrier interface {
	// LocalVIP returns the virtual IP this carrier serves.
	LocalVIP() IP
	// SendIP tunnels a packet toward its destination.
	SendIP(p *Packet)
	// SetReceiver installs the upcall for packets arriving for LocalVIP.
	SetReceiver(f func(p *Packet))
	// Clock exposes the simulation clock for timers.
	Clock() *sim.Simulator
}

// icmpEcho is an echo request/reply, the probe used throughout §V-B.
type icmpEcho struct {
	Reply bool
	ID    uint64
	Seq   int
	Sent  sim.Time
}

// udpDatagram carries one message-oriented payload.
type udpDatagram struct {
	SrcPort, DstPort uint16
	Msg              any
}
