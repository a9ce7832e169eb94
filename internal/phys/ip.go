// Package phys simulates the physical Internet substrate underneath a WOW
// deployment: sites joined by wide-area paths with latency, jitter, loss and
// bandwidth; hosts with finite CPU service rates (modelling the heavily
// loaded PlanetLab routers of the paper's testbed); and nested address
// realms whose boundaries are NAT and firewall middleboxes.
//
// The paper ran on real networks; every experiment here runs on this
// substrate instead, driven by the deterministic event engine in
// internal/sim. Protocol code (internal/brunet, internal/ipop) is real —
// only wires, routers and middleboxes are simulated.
package phys

import (
	"fmt"
	"strconv"
	"strings"

	"wow/internal/sim"
)

// IP is a physical IPv4 address in host byte order.
type IP uint32

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// ParseIP parses a dotted-quad address. It returns an error for anything
// that is not exactly four dot-separated octets.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("phys: invalid IP %q", s)
	}
	var ip IP
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("phys: invalid IP %q", s)
		}
		ip = ip<<8 | IP(v)
	}
	return ip, nil
}

// MustParseIP is ParseIP that panics on malformed input; for tests and
// static topology tables.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Endpoint is a UDP endpoint: an address and a port.
type Endpoint struct {
	IP   IP
	Port uint16
}

// String renders "ip:port".
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.IP, e.Port) }

// IsZero reports whether the endpoint is unset.
func (e Endpoint) IsZero() bool { return e.IP == 0 && e.Port == 0 }

// Wire protocol numbers; NATs and firewalls track UDP and TCP flows in
// separate tables, and hosts dispatch them to separate port namespaces.
const (
	WireUDP uint8 = 17
	WireTCP uint8 = 6
)

// Packet is a simulated datagram (UDP) or stream segment (TCP transport;
// see Stream). Payload is carried by reference (no serialization); Size in
// bytes drives transmission-delay and bandwidth modelling. Src and Dst are
// rewritten in place by NAT middleboxes as the packet traverses realm
// boundaries, exactly as real NATs rewrite headers. A zero Proto is
// normalized to WireUDP on send.
//
// Packets are pooled per shard by the Network (a sim.FreeList per shard):
// one is taken from the sending shard's list per UDPSock.Send and put on the
// executing shard's list after its delivery callback (or drop hook) returns.
// Receive handlers must therefore not retain *Packet past the OnRecv call —
// copy the fields (they are values) or the Packet itself if needed later.
type Packet struct {
	Src   Endpoint
	Dst   Endpoint
	Proto uint8
	// Pooled sits in the padding after Proto: the packet is 64 bytes.
	sim.Pooled
	Size    int
	Payload any

	// dest is the delivering host, resolved by routing; it rides in the
	// packet so delivery events can be scheduled through sim.AtArg with
	// package-level callbacks — no per-packet closure allocations.
	dest *Host
	// entry is the private realm a deferred packet descends into: set by
	// send when the destination hides behind a middlebox chain owned by
	// another shard than the sender's, consumed by deliverBoundary on that
	// shard (cleared before delivery).
	entry *Realm
}

// Carries is the payload, which a cross-shard hand-off (sim.HandOff) follows
// to the pooled objects of the layers above.
func (p *Packet) Carries() any { return p.Payload }
