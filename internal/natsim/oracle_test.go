package natsim

import (
	"wow/internal/phys"
	"wow/internal/sim"
)

// The oracles: the NAT and the firewall as they were before the flow memo,
// every packet through the maps — the references the memo tests hold the
// devices to. Translation, filtering, expiry and port allocation are the
// old code line for line; only what a test cannot reach (realms, names) is
// left out.

type refMapping struct {
	key      mapKey
	inner    phys.Endpoint
	public   phys.Endpoint
	lastUsed sim.Time
	peers    map[phys.IP]map[uint16]bool
}

// pubKey identifies a public-side mapping: NATs keep separate UDP and TCP
// translation tables.
type pubKey struct {
	proto uint8
	port  uint16
}

// The devices' drop reasons as the references count them, by name.
var (
	natDropNames      = [numNATDrops]string{dropHairpin: "hairpin", dropNoMapping: "nomapping", dropFiltered: "filtered"}
	firewallDropNames = [numFirewallDrops]string{dropProto: "proto", dropUnsolicited: "unsolicited"}
)

// sameDrops compares a device's drop counts with its reference's, reason
// by reason.
func sameDrops(drops []int, names []string, ref map[string]int) bool {
	counted := 0
	for i, name := range names {
		if drops[i] != ref[name] {
			return false
		}
		if drops[i] != 0 {
			counted++
		}
	}
	return counted == len(ref)
}

type refNAT struct {
	cfg      Config
	publicIP phys.IP
	nextPort uint16
	byKey    map[mapKey]*refMapping
	byPublic map[pubKey]*refMapping
	clock    func() sim.Time
	Drops    map[string]int
}

func newRefNAT(cfg Config, publicIP phys.IP, clock func() sim.Time) *refNAT {
	return &refNAT{
		cfg:      cfg,
		publicIP: publicIP,
		nextPort: 1024,
		byKey:    make(map[mapKey]*refMapping),
		byPublic: make(map[pubKey]*refMapping),
		clock:    clock,
		Drops:    make(map[string]int),
	}
}

func (n *refNAT) SetType(t NATType) { n.cfg.Type = t }

func (n *refNAT) Rebind() {
	n.byKey = make(map[mapKey]*refMapping)
	n.byPublic = make(map[pubKey]*refMapping)
}

func (n *refNAT) Mappings() int {
	now := n.clock()
	live := 0
	for _, m := range n.byKey {
		if now.Sub(m.lastUsed) <= mappingTTL {
			live++
			continue
		}
		n.remove(m)
	}
	return live
}

// remove takes m out of both maps.
func (n *refNAT) remove(m *refMapping) {
	delete(n.byKey, m.key)
	delete(n.byPublic, pubKey{m.key.proto, m.public.Port})
}

func (n *refNAT) key(proto uint8, inner, dst phys.Endpoint) mapKey {
	if n.cfg.Type == Symmetric {
		return mapKey{proto: proto, inner: inner, dst: dst}
	}
	return mapKey{proto: proto, inner: inner}
}

func (n *refNAT) allocPort(proto uint8) uint16 {
	for {
		p := n.nextPort
		n.nextPort++
		if n.nextPort == 0 {
			n.nextPort = 1024
		}
		if _, taken := n.byPublic[pubKey{proto, p}]; !taken {
			return p
		}
	}
}

func (n *refNAT) lookupOrCreate(now sim.Time, proto uint8, inner, dst phys.Endpoint) *refMapping {
	k := n.key(proto, inner, dst)
	m, ok := n.byKey[k]
	if ok && now.Sub(m.lastUsed) > mappingTTL {
		n.remove(m)
		ok = false
	}
	if !ok {
		m = &refMapping{
			key:    k,
			inner:  inner,
			public: phys.Endpoint{IP: n.publicIP, Port: n.allocPort(proto)},
			peers:  make(map[phys.IP]map[uint16]bool),
		}
		n.byKey[k] = m
		n.byPublic[pubKey{proto, m.public.Port}] = m
	}
	m.lastUsed = now
	if m.peers[dst.IP] == nil {
		m.peers[dst.IP] = make(map[uint16]bool)
	}
	m.peers[dst.IP][dst.Port] = true
	return m
}

func (n *refNAT) Outbound(now sim.Time, p *phys.Packet) bool {
	if p.Dst.IP == n.publicIP && !n.cfg.Hairpin {
		n.Drops["hairpin"]++
		return false
	}
	m := n.lookupOrCreate(now, p.Proto, p.Src, p.Dst)
	p.Src = m.public
	return true
}

func (n *refNAT) Inbound(now sim.Time, p *phys.Packet) bool {
	m, ok := n.byPublic[pubKey{p.Proto, p.Dst.Port}]
	if ok && now.Sub(m.lastUsed) > mappingTTL {
		n.remove(m)
		ok = false
	}
	if !ok {
		n.Drops["nomapping"]++
		return false
	}
	switch n.cfg.Type {
	case FullCone:
	case RestrictedCone:
		if m.peers[p.Src.IP] == nil {
			n.Drops["filtered"]++
			return false
		}
	case PortRestricted, Symmetric:
		if m.peers[p.Src.IP] == nil || !m.peers[p.Src.IP][p.Src.Port] {
			n.Drops["filtered"]++
			return false
		}
	}
	m.lastUsed = now
	p.Dst = m.inner
	return true
}

type refFirewall struct {
	flowTTL       sim.Duration
	allowPorts    map[uint16]bool
	blockedProtos map[uint8]bool
	flows         map[flowKey]sim.Time
	Drops         map[string]int
}

func newRefFirewall(flowTTL sim.Duration, allowPorts ...uint16) *refFirewall {
	if flowTTL == 0 {
		flowTTL = 120 * sim.Second
	}
	f := &refFirewall{
		flowTTL:       flowTTL,
		allowPorts:    make(map[uint16]bool),
		blockedProtos: make(map[uint8]bool),
		flows:         make(map[flowKey]sim.Time),
		Drops:         make(map[string]int),
	}
	for _, p := range allowPorts {
		f.allowPorts[p] = true
	}
	return f
}

func (f *refFirewall) BlockProto(proto uint8) { f.blockedProtos[proto] = true }

func (f *refFirewall) Outbound(now sim.Time, p *phys.Packet) bool {
	if f.blockedProtos[p.Proto] {
		f.Drops["proto"]++
		return false
	}
	f.flows[flowKey{proto: p.Proto, inside: p.Src, outside: p.Dst}] = now
	return true
}

func (f *refFirewall) Inbound(now sim.Time, p *phys.Packet) bool {
	if f.blockedProtos[p.Proto] {
		f.Drops["proto"]++
		return false
	}
	if f.allowPorts[p.Dst.Port] {
		return true
	}
	k := flowKey{proto: p.Proto, inside: p.Dst, outside: p.Src}
	if t, ok := f.flows[k]; ok {
		if now.Sub(t) <= f.flowTTL {
			f.flows[k] = now
			return true
		}
		delete(f.flows, k)
	}
	f.Drops["unsolicited"]++
	return false
}
