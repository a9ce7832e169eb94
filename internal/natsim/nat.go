// Package natsim models the NAT and firewall middleboxes of the WOW
// testbed. The paper's connection-establishment results (Figures 4 and 5)
// hinge on middlebox behaviour: the UFL NAT discards hairpin packets, the
// VMware per-host NAT supports hairpin translation, the ncgrid firewall
// admits a single UDP port, and node034 sits behind three nested NATs.
// Each of those devices is reproducible with the types in this package.
package natsim

import (
	"fmt"
	"slices"

	"wow/internal/phys"
	"wow/internal/sim"
)

// NATType selects the translation/filtering discipline, following the
// classic STUN taxonomy referenced by the paper's hole-punching citations.
type NATType int

const (
	// FullCone maps each inner endpoint to one public port and accepts
	// inbound from anyone.
	FullCone NATType = iota
	// RestrictedCone accepts inbound only from IPs the inner endpoint
	// has previously sent to.
	RestrictedCone
	// PortRestricted accepts inbound only from IP:port pairs previously
	// sent to. Hole punching still works when both sides send.
	PortRestricted
	// Symmetric allocates a distinct public port per (inner endpoint,
	// destination) pair, defeating ordinary hole punching.
	Symmetric
)

// String names the NAT type.
func (t NATType) String() string {
	switch t {
	case FullCone:
		return "full-cone"
	case RestrictedCone:
		return "restricted-cone"
	case PortRestricted:
		return "port-restricted"
	case Symmetric:
		return "symmetric"
	}
	return fmt.Sprintf("NATType(%d)", int(t))
}

// Config parameterizes a NAT device.
type Config struct {
	Type NATType
	// Hairpin enables hairpin (NAT loopback) translation: packets from
	// the inside addressed to the NAT's own public endpoint are turned
	// around. The paper's UFL NAT lacks it; the VMware NAT has it.
	Hairpin bool
}

// mappingTTL expires idle mappings: a typical consumer-router UDP timeout.
const mappingTTL = 120 * sim.Second

type mapKey struct {
	proto uint8
	inner phys.Endpoint
	dst   phys.Endpoint // used by symmetric NATs only (zero otherwise)
}

type mapping struct {
	key      mapKey
	public   phys.Endpoint
	lastUsed sim.Time
	// peers lists the destinations the inner endpoint has contacted, each
	// once, for restricted-cone and port-restricted filtering.
	peers []phys.Endpoint
}

// NAT is a network address translator implementing phys.Boundary.
type NAT struct {
	name     string
	cfg      Config
	publicIP phys.IP
	nextPort uint16
	// table holds the mappings, at most one per key and one per (wire
	// protocol, public port): NATs keep separate UDP and TCP translation
	// tables. An expired mapping stays until a lookup, Mappings or Rebind
	// finds it, and keeps its public port taken until then.
	table []*mapping
	clock func() sim.Time
	// Drops counts packets dropped by this device, by reason.
	Drops map[string]int

	// The flow memo: the mapping the previous translation used, in either
	// direction, and that packet's remote endpoint. A transfer is a long
	// run of one flow, so the memo usually answers without scanning the
	// table or the peer list. While last is set it is a mapping of the table
	// and last.peers holds lastPeer: whatever takes a mapping out of the
	// table goes through drop, Mappings or Rebind, which clear the memo, and
	// only a translation that has just written or read that peer entry sets
	// it. The TTL test and the lastUsed refresh run on a hit as on a miss.
	last     *mapping
	lastPeer phys.Endpoint
	// memoHits of memoLookups translations scanned nothing (tests read
	// them; nothing prints them).
	memoHits, memoLookups uint64
}

// NewNAT creates a NAT that will own publicIP in its outer realm. The
// clock func supplies current virtual time (use sim.Simulator.Now).
func NewNAT(name string, cfg Config, publicIP phys.IP, clock func() sim.Time) *NAT {
	return &NAT{
		name:     name,
		cfg:      cfg,
		publicIP: publicIP,
		nextPort: 1024,
		clock:    clock,
		Drops:    make(map[string]int),
	}
}

// Attach implements phys.Boundary. The outer realm is where the NAT's
// public endpoints live: Attach rejects a public IP that collides with a
// host already registered there (a topology bug that would otherwise shadow
// the host from inbound routing). phys pins the whole inner chain to one
// site (and so one shard) through phys.Realm placement, so only events of
// that shard call Outbound and Inbound.
func (n *NAT) Attach(_, outer *phys.Realm) {
	if outer.HasHost(n.publicIP) {
		panic(fmt.Sprintf("natsim: NAT %s public IP %s collides with a host in outer realm %q",
			n.name, n.publicIP, outer.Name))
	}
}

// Claims implements phys.Boundary: the NAT claims its public address.
func (n *NAT) Claims(ip phys.IP) bool { return ip == n.publicIP }

// PublicIP returns the NAT's outer address.
func (n *NAT) PublicIP() phys.IP { return n.publicIP }

// SetType changes the NAT discipline in place, modelling a reconfigured or
// replaced middlebox (e.g. an admin relaxing a symmetric NAT to full-cone).
// Existing mappings survive; flows established under the old discipline
// keep their translations while new lookups follow the new key/filter
// rules. Used by the tunnel-upgrade experiments: a tunnel edge must
// upgrade itself to a direct edge once the NAT allows hole punching.
func (n *NAT) SetType(t NATType) { n.cfg.Type = t }

// Rebind flushes every translation table entry, modelling the NAT
// IP/port translation changes the paper observed on the home-broadband
// node034 (§V-E): ISP-driven re-binding that invalidates all established
// flows at once. Overlay links through the NAT break until the protocols
// re-establish them.
func (n *NAT) Rebind() {
	n.table, n.last = nil, nil
}

// Mappings reports the number of live (unexpired) mappings, reaping
// expired entries as it goes so the translation table doesn't accumulate
// dead flows between packets.
func (n *NAT) Mappings() int {
	now := n.clock()
	if n.last != nil && n.expired(now, n.last) {
		n.last = nil
	}
	n.table = slices.DeleteFunc(n.table, func(m *mapping) bool { return n.expired(now, m) })
	return len(n.table)
}

func (n *NAT) expired(now sim.Time, m *mapping) bool {
	return now.Sub(m.lastUsed) > mappingTTL
}

// drop takes m out of the table, and out of the memo if it is there.
func (n *NAT) drop(m *mapping) {
	i := slices.Index(n.table, m)
	n.table = slices.Delete(n.table, i, i+1)
	if n.last == m {
		n.last = nil
	}
}

// byKey returns the table's mapping under k, or nil.
func (n *NAT) byKey(k mapKey) *mapping {
	for _, m := range n.table {
		if m.key == k {
			return m
		}
	}
	return nil
}

// byPublic returns the table's mapping of the public port, or nil.
func (n *NAT) byPublic(proto uint8, port uint16) *mapping {
	for _, m := range n.table {
		if m.public.Port == port && m.key.proto == proto {
			return m
		}
	}
	return nil
}

func (n *NAT) key(proto uint8, inner, dst phys.Endpoint) mapKey {
	if n.cfg.Type == Symmetric {
		return mapKey{proto: proto, inner: inner, dst: dst}
	}
	return mapKey{proto: proto, inner: inner}
}

func (n *NAT) allocPort(proto uint8) uint16 {
	for {
		p := n.nextPort
		n.nextPort++
		if n.nextPort == 0 {
			n.nextPort = 1024
		}
		if n.byPublic(proto, p) == nil {
			return p
		}
	}
}

// lookupOrCreate is Outbound's table path: the mapping under k, made afresh
// if absent or expired, with dst recorded among its peers and both
// remembered as the flow memo.
func (n *NAT) lookupOrCreate(now sim.Time, k mapKey, dst phys.Endpoint) *mapping {
	m := n.byKey(k)
	if m != nil && n.expired(now, m) {
		// Expired: a fresh flow gets a fresh public port, modelling
		// the NAT translation changes the paper observed on the
		// home-broadband node034.
		n.drop(m)
		m = nil
	}
	if m == nil {
		m = &mapping{key: k, public: phys.Endpoint{IP: n.publicIP, Port: n.allocPort(k.proto)}}
		n.table = append(n.table, m)
	}
	if !slices.Contains(m.peers, dst) {
		m.peers = append(m.peers, dst)
	}
	n.last, n.lastPeer = m, dst
	return m
}

// Outbound implements phys.Boundary: rewrite source to the public mapping.
// Hairpin packets (dst == own public IP) are dropped unless Hairpin is set.
func (n *NAT) Outbound(now sim.Time, p *phys.Packet) bool {
	if p.Dst.IP == n.publicIP && !n.cfg.Hairpin {
		n.Drops["hairpin"]++
		return false
	}
	n.memoLookups++
	// The memo is compared by the key the current discipline computes, so
	// a mapping made under another discipline (SetType) misses here exactly
	// as it misses in the table.
	k := n.key(p.Proto, p.Src, p.Dst)
	m := n.last
	if m != nil && m.key == k && p.Dst == n.lastPeer && !n.expired(now, m) {
		n.memoHits++
	} else {
		m = n.lookupOrCreate(now, k, p.Dst)
	}
	m.lastUsed = now
	p.Src = m.public
	return true
}

// Inbound implements phys.Boundary: translate a packet addressed to one of
// the NAT's public endpoints back to the mapped inner endpoint, subject to
// the type's filtering discipline.
func (n *NAT) Inbound(now sim.Time, p *phys.Packet) bool {
	n.memoLookups++
	m := n.last
	hit := m != nil && m.public.Port == p.Dst.Port && m.key.proto == p.Proto
	if !hit {
		m = n.byPublic(p.Proto, p.Dst.Port)
	}
	if m != nil && n.expired(now, m) {
		// Expired mapping: reap it now; the packet is dropped exactly as
		// if the entry had never existed.
		n.drop(m)
		m = nil
	}
	if m == nil {
		n.Drops["nomapping"]++
		return false
	}
	// On the memo's mapping the memo's peer is known to be in m.peers; any
	// other source is looked up there.
	switch n.cfg.Type {
	case FullCone:
		// accept from anyone
	case RestrictedCone:
		hit = hit && p.Src.IP == n.lastPeer.IP
		if !hit && !slices.ContainsFunc(m.peers, func(e phys.Endpoint) bool { return e.IP == p.Src.IP }) {
			n.Drops["filtered"]++
			return false
		}
	case PortRestricted, Symmetric:
		hit = hit && p.Src == n.lastPeer
		if !hit {
			if !slices.Contains(m.peers, p.Src) {
				n.Drops["filtered"]++
				return false
			}
			n.last, n.lastPeer = m, p.Src
		}
	}
	if hit {
		n.memoHits++
	}
	m.lastUsed = now
	p.Dst = m.key.inner
	return true
}

var _ phys.Boundary = (*NAT)(nil)
