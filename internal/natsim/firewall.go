package natsim

import (
	"slices"

	"wow/internal/phys"
	"wow/internal/sim"
)

// Firewall is a stateful packet filter at a realm boundary. Unlike a NAT it
// does not translate addresses: hosts inside keep routable addresses, but
// unsolicited inbound traffic is dropped unless it matches an established
// outbound flow (a "pinhole") or a static allow rule.
//
// The paper's ncgrid.org site is the archetype: its firewall had exactly
// one UDP port opened for IPOP traffic; every other site relied on
// hole-punched flows only.
type Firewall struct {
	name  string
	inner *phys.Realm
	// FlowTTL expires idle pinholes. Zero means 120s.
	flowTTL sim.Duration
	// allowPorts are statically open inbound destination ports: a site
	// opens one or none, so the rule sets are slices and scanned.
	allowPorts []uint16
	// blockedProtos drops traffic of the given wire protocols entirely
	// (some sites firewall UDP altogether, forcing overlay links onto
	// the TCP transport).
	blockedProtos []uint8
	// flows maps (inner endpoint, outer endpoint) -> last use. The entry
	// of the memo's pinhole may lag behind the memo; see remember.
	flows map[flowKey]sim.Time
	// drops counts packets dropped, by reason (tests read it; nothing
	// prints it).
	drops [numFirewallDrops]int

	// The flow memo: the pinhole the previous packet used, in either
	// direction, and its last use. A packet of the same flow refreshes
	// last.seen and touches no map; the time goes back into flows when the
	// memo moves to another pinhole, and an expired pinhole leaves both.
	last struct {
		key   flowKey
		seen  sim.Time
		live  bool // key is a pinhole of flows
		dirty bool // seen is later than flows[key]
	}
	// memoHits of memoLookups pinhole passes did no map operation (tests
	// read them; nothing prints them).
	memoHits, memoLookups uint64
}

// The reasons a firewall drops a packet, indexing Firewall.drops.
const (
	dropProto       = iota // a blocked wire protocol, either way
	dropUnsolicited        // inbound with no live pinhole or open port
	numFirewallDrops
)

type flowKey struct {
	proto   uint8
	inside  phys.Endpoint
	outside phys.Endpoint
}

// NewFirewall creates a stateful firewall. allowPorts lists inbound
// destination ports that are statically open (may be nil). The clock is
// unused: a firewall reads the time each packet passes it at (Outbound,
// Inbound).
func NewFirewall(name string, flowTTL sim.Duration, clock func() sim.Time, allowPorts ...uint16) *Firewall {
	if flowTTL == 0 {
		flowTTL = 120 * sim.Second
	}
	f := &Firewall{
		name:       name,
		flowTTL:    flowTTL,
		allowPorts: slices.Clone(allowPorts),
		flows:      make(map[flowKey]sim.Time),
	}
	return f
}

// Attach implements phys.Boundary, recording the protected realm.
func (f *Firewall) Attach(inner, _ *phys.Realm) { f.inner = inner }

// Claims implements phys.Boundary: the firewall claims every address
// routable inside it — protected hosts and the public endpoints of nested
// NATs (all globally routable; the firewall filters without translating).
func (f *Firewall) Claims(ip phys.IP) bool { return f.inner.Covers(ip) }

// BlockProto drops all traffic of the given wire protocol in both
// directions (e.g. phys.WireUDP for a UDP-hostile site).
func (f *Firewall) BlockProto(proto uint8) { f.blockedProtos = append(f.blockedProtos, proto) }

// memo reports whether k is the pinhole the previous packet used.
func (f *Firewall) memo(k flowKey) bool {
	f.memoLookups++
	return f.last.live && f.last.key == k
}

// refresh records a use of the memo's pinhole, in the memo alone.
func (f *Firewall) refresh(now sim.Time) {
	f.memoHits++
	f.last.seen, f.last.dirty = now, true
}

// remember records a use of pinhole k in flows and makes k the memo; the
// pinhole the memo leaves takes its refreshed time back into flows.
func (f *Firewall) remember(k flowKey, now sim.Time) {
	if f.last.live && f.last.dirty {
		f.flows[f.last.key] = f.last.seen
	}
	f.flows[k] = now
	f.last.key, f.last.seen, f.last.live, f.last.dirty = k, now, true, false
}

// Outbound implements phys.Boundary: record the flow pinhole and pass.
func (f *Firewall) Outbound(now sim.Time, p *phys.Packet) bool {
	if slices.Contains(f.blockedProtos, p.Proto) {
		f.drops[dropProto]++
		return false
	}
	if k := (flowKey{proto: p.Proto, inside: p.Src, outside: p.Dst}); f.memo(k) {
		f.refresh(now)
	} else {
		f.remember(k, now)
	}
	return true
}

// Inbound implements phys.Boundary: admit packets to statically open ports
// or matching a live pinhole.
func (f *Firewall) Inbound(now sim.Time, p *phys.Packet) bool {
	if slices.Contains(f.blockedProtos, p.Proto) {
		f.drops[dropProto]++
		return false
	}
	if slices.Contains(f.allowPorts, p.Dst.Port) {
		return true
	}
	k := flowKey{proto: p.Proto, inside: p.Dst, outside: p.Src}
	if f.memo(k) {
		if now.Sub(f.last.seen) <= f.flowTTL {
			f.refresh(now)
			return true
		}
		delete(f.flows, k)
		f.last.live = false
	} else if t, ok := f.flows[k]; ok {
		if now.Sub(t) <= f.flowTTL {
			f.remember(k, now)
			return true
		}
		delete(f.flows, k)
	}
	f.drops[dropUnsolicited]++
	return false
}

var _ phys.Boundary = (*Firewall)(nil)
