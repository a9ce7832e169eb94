package phys

import (
	"fmt"

	"wow/internal/metrics"
	"wow/internal/sim"
	"wow/internal/trace"
)

// Boundary is a middlebox (NAT or firewall) connecting an inner address
// realm to its outer realm. Implementations live in internal/natsim.
type Boundary interface {
	// Attach is called once when the boundary is installed between realms.
	Attach(inner, outer *Realm)
	// Outbound processes a packet leaving the inner realm, possibly
	// rewriting p.Src. It reports false to drop the packet (e.g. a
	// hairpin packet on a NAT without hairpin support, or a firewall
	// egress rule).
	Outbound(now sim.Time, p *Packet) bool
	// Inbound processes a packet arriving from the outer realm that this
	// boundary Claims. For a NAT, p.Dst is one of its public endpoints
	// and is rewritten to the mapped inner endpoint; for a firewall,
	// p.Dst is already an inner routable address. It reports false to
	// drop (no mapping, filtered source, closed pinhole).
	Inbound(now sim.Time, p *Packet) bool
	// Claims reports whether inbound packets addressed to ip in the
	// outer realm should be handed to this boundary.
	Claims(ip IP) bool
}

// Site is a network location. Path characteristics between two hosts are
// looked up by their sites' indices in the network's latency model. In a
// sharded network every site (and so every host at it) belongs to one
// shard of the parallel engine.
type Site struct {
	Name  string
	Index int
	shard int
}

// Shard reports which engine shard owns the site's events; always 0 in an
// unsharded network.
func (s *Site) Shard() int { return s.shard }

// PathModel describes the wide-area path between two sites.
type PathModel struct {
	// OneWay is the one-way propagation delay.
	OneWay sim.Duration
	// Jitter uniformly perturbs OneWay by ±Jitter per packet.
	Jitter sim.Duration
	// Loss is the independent per-packet loss probability.
	Loss float64
}

// LatencyFunc returns the path model between two sites.
type LatencyFunc func(a, b *Site) PathModel

// Realm is an address scope: the public Internet (root) or a private
// network behind a Boundary. Hosts are registered in exactly one realm and
// their IPs are unique within it.
//
// In a sharded network every private realm is shard-affine: the chain of
// realms hanging off one top-level boundary is pinned to a single site (and
// therefore a single engine shard) by the first AddHost anywhere in the
// chain. The boundary middleboxes of the chain are then only ever invoked
// on that shard's timeline — outbound translations run on the sender's
// shard (the sender lives in the chain), inbound translations are deferred
// to the owning shard (see deliverBoundary) — so NAT mapping tables, port
// allocators and firewall pinhole tables stay single-threaded without
// locks. The root realm is never pinned: its hosts run on their own sites'
// shards and it holds no middlebox state of its own.
type Realm struct {
	Name     string
	net      *Network
	parent   *Realm
	boundary Boundary // connects this realm to parent; nil for root
	// hosts is the realm's directory, indexed by address minus base: every
	// address comes from NextIP, which counts up from base, so the slice is
	// dense, and an address handed to a middlebox instead of a host is a
	// nil hole. Every shard reads it while the engine runs, so hosts are
	// added before a run or between runs, never during one.
	hosts    []*Host
	base     IP
	nhosts   int
	children []childBoundary

	// site/pinned are the sharded placement: set (with the whole chain) by
	// the first AddHost behind this realm's top-level boundary. Unsharded
	// networks never pin.
	site   *Site
	pinned bool
}

type childBoundary struct {
	b     Boundary
	inner *Realm
}

// HasHost reports whether ip belongs to a host registered in this realm.
// NAT and firewall boundaries use it to decide what they claim.
func (r *Realm) HasHost(ip IP) bool { return r.host(ip) != nil }

// host returns the host registered at ip, or nil: the one directory read
// under routing, boundary descent and HasHost. An address below base wraps
// to an index past the top.
func (r *Realm) host(ip IP) *Host {
	if i := uint(ip - r.base); i < uint(len(r.hosts)) {
		return r.hosts[i]
	}
	return nil
}

// Covers reports whether ip is addressable within this realm: a host here,
// or an address claimed by a nested boundary (e.g. the public endpoint of
// a VMware NAT inside a firewalled campus network). Firewalls claim their
// inner realm's whole coverage, since they filter but do not translate.
func (r *Realm) Covers(ip IP) bool {
	if r.HasHost(ip) {
		return true
	}
	for _, cb := range r.children {
		if cb.b.Claims(ip) {
			return true
		}
	}
	return false
}

// Hosts returns the number of hosts registered in the realm.
func (r *Realm) Hosts() int { return r.nhosts }

// Shard reports the engine shard owning this realm's middlebox timeline:
// the pinned site's shard for a private realm in a sharded network, 0
// otherwise (root realm, unsharded network, or a chain no host was ever
// placed behind).
func (r *Realm) Shard() int {
	if r.pinned {
		return r.site.shard
	}
	return 0
}

// Site returns the site a sharded private realm is pinned to, nil when the
// realm is unpinned (root, unsharded, or empty chain).
func (r *Realm) Site() *Site {
	if r.pinned {
		return r.site
	}
	return nil
}

// chainTop walks up to the realm directly under root — the top of the
// middlebox chain this realm belongs to. Called on private realms only.
func (r *Realm) chainTop() *Realm {
	top := r
	for top.parent != nil && top.parent.parent != nil {
		top = top.parent
	}
	return top
}

// pinChain pins every realm of the chain rooted at top-level realm r to
// site: r itself and, recursively, every nested child realm. Realms added
// to the chain later inherit the pin at AddRealm time.
func (r *Realm) pinChain(site *Site) {
	r.site = site
	r.pinned = true
	for _, cb := range r.children {
		cb.inner.pinChain(site)
	}
}

// NextIP allocates the next unused address in the realm, counting up from
// the base passed to AddRealm/root creation. AddHost gives the address to a
// host; any other caller (a NAT taking a public address) leaves a hole in
// the directory.
func (r *Realm) NextIP() IP {
	r.hosts = append(r.hosts, nil)
	return r.base + IP(len(r.hosts)-1)
}

// Network is the simulated physical Internet: sites, realms, hosts and the
// packet-delivery pipeline.
type Network struct {
	Sim     *sim.Simulator
	Latency LatencyFunc
	// Stats counts delivery outcomes: delivered, lost.wire, lost.noroute,
	// lost.boundary, lost.hostdown, lost.noport, lost.overload.
	Stats metrics.Counter
	// OnDrop, when set, observes every dropped packet with its loss
	// reason; a diagnostics hook used by tests and experiment harnesses.
	OnDrop func(reason string, p *Packet)
	// Perturb, when set, lets a fault injector rewrite the path model of
	// a single packet — adding loss or latency, or blackholing the packet
	// outright (second return true; counted as lost.fault). It runs after
	// routing and host-liveness checks, so the injector sees the actual
	// delivering hosts. internal/faults installs this hook.
	Perturb func(src, dst *Host, pm PathModel) (PathModel, bool)
	// FlightRecorder, when set, receives a route terminal for every
	// traced overlay packet the network drops (outcome "phys."+reason).
	// The tracer must carry one buffer per engine shard (a single buffer
	// for the unsharded network): drops emit into the executing shard's
	// buffer, preserving the single-writer merge discipline.
	FlightRecorder *trace.Tracer

	sites      []*Site
	root       *Realm
	hosts      []*Host
	nextConnID uint64

	// engine is the parallel event engine of a sharded network; nil for
	// the classic single-threaded network, where Sim drives everything.
	engine *sim.Sharded
	// shStats holds the per-shard drop/delivery counters of a sharded
	// network; nil when unsharded. statsSh/deliveredSh are always
	// populated: in the unsharded case they have one entry aliasing Stats,
	// so the hot paths index by shard unconditionally.
	shStats     *metrics.Sharded
	statsSh     []*metrics.Counter
	deliveredSh []metrics.Handle
	// freePktSh is the per-shard packet free list: shard-local acquire and
	// release, so pooling stays lock-free under parallel execution.
	freePktSh []*Packet
	// boundInSh/boundOutSh are pre-resolved per-shard counters for boundary
	// translations (inbound counted on the realm's owning shard, outbound on
	// the sender's), so the NAT path doesn't pay a counter-map lookup per
	// translation.
	boundInSh  []metrics.Handle
	boundOutSh []metrics.Handle
}

// NewNetwork creates a network with the given latency model. The root
// (public) realm allocates IPs starting at 128.0.0.1.
func NewNetwork(s *sim.Simulator, latency LatencyFunc) *Network {
	n := &Network{
		Sim:     s,
		Latency: latency,
		root:    &Realm{Name: "internet", base: MustParseIP("128.0.0.1")},
	}
	n.root.net = n
	n.statsSh = []*metrics.Counter{&n.Stats}
	n.deliveredSh = []metrics.Handle{n.Stats.Handle("delivered")}
	n.boundInSh = []metrics.Handle{n.Stats.Handle("boundary.in")}
	n.boundOutSh = []metrics.Handle{n.Stats.Handle("boundary.out")}
	n.freePktSh = make([]*Packet, 1)
	return n
}

// NewShardedNetwork creates a network driven by a parallel sharded engine.
// Sites are assigned to shards round-robin as they are added, hosts run on
// their site's shard, and cross-shard packets travel through the engine's
// deterministic lanes. Private realms are supported and shard-affine: a
// middlebox chain is pinned to one site (and shard) by the first AddHost
// behind it, every later host behind the same chain must live at that site,
// and all NAT/firewall state is touched only on the owning shard's timeline
// (outbound translation at send on the sender's shard, inbound translation
// deferred to the realm's shard — see deliverBoundary). Stats must be read
// through TotalStats() (per-shard counters merge on demand). Sim aliases
// shard 0 for code that only needs a clock between runs.
func NewShardedNetwork(eng *sim.Sharded, latency LatencyFunc) *Network {
	n := &Network{
		Sim:     eng.Shard(0),
		Latency: latency,
		root:    &Realm{Name: "internet", base: MustParseIP("128.0.0.1")},
		engine:  eng,
	}
	n.root.net = n
	k := eng.Shards()
	n.shStats = metrics.NewSharded(k)
	n.statsSh = make([]*metrics.Counter, k)
	n.deliveredSh = n.shStats.Handles("delivered")
	n.boundInSh = n.shStats.Handles("boundary.in")
	n.boundOutSh = n.shStats.Handles("boundary.out")
	for i := 0; i < k; i++ {
		n.statsSh[i] = n.shStats.Shard(i)
	}
	n.freePktSh = make([]*Packet, k)
	return n
}

// Sharded reports whether the network runs on a parallel engine.
func (n *Network) Sharded() bool { return n.engine != nil }

// Engine returns the parallel engine of a sharded network (nil otherwise).
func (n *Network) Engine() *sim.Sharded { return n.engine }

// TotalStats returns the fleet-wide delivery/drop counters: a merged view
// of the per-shard counters in a sharded network, or a copy of Stats in an
// unsharded one. Call between runs only.
func (n *Network) TotalStats() metrics.Counter {
	if n.shStats != nil {
		return n.shStats.Merged()
	}
	var c metrics.Counter
	c.Merge(&n.Stats)
	return c
}

// CrossShardFloor computes the infimum of inter-shard one-way delivery
// latency over all site pairs living on different shards: OneWay-Jitter
// minimized over cross-shard pairs. This is the largest admissible
// lookahead for the engine — any cross-shard packet departs at least this
// far in the future. The second return is false when no site pair crosses
// shards (single shard, or all sites mapped to one shard).
func (n *Network) CrossShardFloor() (sim.Duration, bool) {
	var floor sim.Duration
	found := false
	for _, a := range n.sites {
		for _, b := range n.sites {
			if a.shard == b.shard {
				continue
			}
			pm := n.Latency(a, b)
			f := pm.OneWay - pm.Jitter
			if !found || f < floor {
				floor, found = f, true
			}
		}
	}
	return floor, found
}

// Root returns the public Internet realm.
func (n *Network) Root() *Realm { return n.root }

// AddSite registers a new site. In a sharded network sites are spread
// round-robin over the engine's shards.
func (n *Network) AddSite(name string) *Site {
	s := &Site{Name: name, Index: len(n.sites)}
	if n.engine != nil {
		s.shard = s.Index % n.engine.Shards()
	}
	n.sites = append(n.sites, s)
	return s
}

// AddRealm creates a private realm behind boundary, attached under outer.
// Hosts added to it allocate IPs from ipBase upward. In a sharded network
// the new realm joins its outer chain's shard pin (if the chain is already
// pinned); otherwise the first AddHost behind the chain pins it.
func (n *Network) AddRealm(name string, outer *Realm, boundary Boundary, ipBase IP) *Realm {
	r := &Realm{
		Name:     name,
		net:      n,
		parent:   outer,
		boundary: boundary,
		base:     ipBase,
	}
	if n.engine != nil && outer.pinned {
		r.site = outer.site
		r.pinned = true
	}
	outer.children = append(outer.children, childBoundary{b: boundary, inner: r})
	boundary.Attach(r, outer)
	return r
}

// HostConfig sets a host's performance model.
type HostConfig struct {
	// ServiceTime is the CPU time spent processing one packet at user
	// level (receive + route + resend in the IPOP router). Zero means
	// negligible.
	ServiceTime sim.Duration
	// LoadFactor scales ServiceTime; >1 models background load (the
	// paper's "highly loaded PlanetLab nodes"). Zero means 1.
	LoadFactor float64
	// Bandwidth is the NIC/uplink throughput in bytes/second. Zero means
	// effectively infinite.
	Bandwidth float64
	// QueueLimit bounds the CPU backlog; packets arriving when the
	// backlog exceeds it are dropped (congestion loss). Zero means
	// 200ms worth of backlog.
	QueueLimit sim.Duration
}

// AddHost creates a host at site in realm with an automatically allocated
// address. In a sharded network the first host placed behind a middlebox
// chain pins the whole chain to its site's shard; every later host behind
// the same chain must use the same site (one middlebox fronts one network
// location, and a single site keeps the chain's latency well-defined).
func (n *Network) AddHost(name string, site *Site, realm *Realm, cfg HostConfig) *Host {
	if n.engine != nil && realm.parent != nil {
		switch {
		case !realm.pinned:
			realm.chainTop().pinChain(site)
		case realm.site != site:
			panic(fmt.Sprintf("phys: sharded realm %q is pinned to site %q (shard %d); host %q at site %q must share the chain's site",
				realm.Name, realm.site.Name, realm.site.shard, name, site.Name))
		}
	}
	ip := realm.NextIP()
	if cfg.LoadFactor == 0 {
		cfg.LoadFactor = 1
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 200 * sim.Millisecond
	}
	h := &Host{
		net:   n,
		Name:  name,
		Site:  site,
		realm: realm,
		uid:   uint32(len(n.hosts) + 1),
		ip:    ip,
		cfg:   cfg,
		up:    true,
		shard: site.shard,
		sim:   n.Sim,
	}
	h.socks = h.sockArr[:0]
	if n.engine != nil {
		h.sim = n.engine.Shard(site.shard)
	}
	realm.hosts[ip-realm.base] = h
	realm.nhosts++
	n.hosts = append(n.hosts, h)
	return h
}

// route walks the packet from the sender's realm to a destination host,
// applying boundary translations synchronously. It returns the destination
// host, or nil with a loss-reason counter name. This is the classic
// unsharded pipeline; sharded networks use routeSharded + deliverBoundary
// so middlebox state is only touched on its owning shard.
func (n *Network) route(now sim.Time, p *Packet, from *Realm) (*Host, string) {
	realm := from
	for hops := 0; hops < 64; hops++ {
		if h := realm.host(p.Dst.IP); h != nil {
			return h, ""
		}
		descended := false
		for _, cb := range realm.children {
			if cb.b.Claims(p.Dst.IP) {
				if !cb.b.Inbound(now, p) {
					return nil, "lost.boundary"
				}
				n.boundInSh[0].Inc(1)
				realm = cb.inner
				descended = true
				break
			}
		}
		if descended {
			continue
		}
		if realm.parent == nil {
			return nil, "lost.noroute"
		}
		if !realm.boundary.Outbound(now, p) {
			return nil, "lost.boundary"
		}
		n.boundOutSh[0].Inc(1)
		realm = realm.parent
	}
	return nil, "lost.noroute"
}

// routeSharded is the sender-shard half of the sharded routing pipeline.
// It ascends the sender's own middlebox chain applying outbound
// translations — legal on this shard, because the sender's chain is pinned
// to the sender's site — and resolves the packet's target: either a host
// directly visible at some ascent level (classic delivery), or the pinned
// private realm whose boundary claims the destination address. In the
// latter case no inbound state is touched here: the descent (and its NAT
// table mutations) is deferred to the claiming realm's owning shard via
// deliverBoundary. Claims is read-only by contract, so probing other
// chains' boundaries from this shard is race-free.
func (n *Network) routeSharded(now sim.Time, p *Packet, src *Host) (*Host, *Realm, string) {
	realm := src.realm
	for hops := 0; hops < 64; hops++ {
		if h := realm.host(p.Dst.IP); h != nil {
			return h, nil, ""
		}
		for _, cb := range realm.children {
			if cb.b.Claims(p.Dst.IP) {
				if !cb.inner.pinned {
					// No host was ever placed behind this boundary, so the
					// chain has no owning shard — and no possible receiver.
					return nil, nil, "lost.noroute"
				}
				return nil, cb.inner, ""
			}
		}
		if realm.parent == nil {
			return nil, nil, "lost.noroute"
		}
		if !realm.boundary.Outbound(now, p) {
			return nil, nil, "lost.boundary"
		}
		n.boundOutSh[src.shard].Inc(1)
		realm = realm.parent
	}
	return nil, nil, "lost.noroute"
}

// deliverBoundary is the owning-shard half of the sharded pipeline: it runs
// on the claiming realm's shard at the packet's arrival time. The descent —
// boundary Inbound translations, nested chains included, down to the
// resolved host's receive pipeline — executes entirely on this shard, so
// every mutation of the chain's middlebox state is single-threaded. The
// destination's liveness is therefore judged at arrival rather than at send
// time, which only this path does (the host was not resolvable on the
// sender's shard).
func deliverBoundary(a any) {
	p := a.(*Packet)
	realm := p.entry
	p.entry = nil
	n := realm.net
	sh := realm.site.shard
	checkPacketLive(p, sh, "boundary")
	now := n.engine.Shard(sh).Now()
	if !realm.boundary.Inbound(now, p) {
		n.drop(sh, "lost.boundary", p)
		return
	}
	n.boundInSh[sh].Inc(1)
	for hops := 0; hops < 64; hops++ {
		if h := realm.host(p.Dst.IP); h != nil {
			p.dest = h
			h.receive(p)
			return
		}
		descended := false
		for _, cb := range realm.children {
			if cb.b.Claims(p.Dst.IP) {
				if !cb.b.Inbound(now, p) {
					n.drop(sh, "lost.boundary", p)
					return
				}
				n.boundInSh[sh].Inc(1)
				realm = cb.inner
				descended = true
				break
			}
		}
		if !descended {
			n.drop(sh, "lost.noroute", p)
			return
		}
	}
	n.drop(sh, "lost.noroute", p)
}

// send injects a packet from host src. It computes the delivery schedule
// (transmission, propagation, destination CPU) and routes through
// middleboxes. The final translated packet is handed to the destination
// socket's receive callback. All state it touches — sender clock and RNG,
// shard counters, packet pool — belongs to the sender's shard, except the
// final delivery schedule, which crosses shards through the engine when
// the destination lives elsewhere.
func (n *Network) send(src *Host, p *Packet) {
	checkPacketLive(p, src.shard, "send")
	now := src.sim.Now()
	if p.Proto == 0 {
		p.Proto = WireUDP
	}

	// Transmission delay serialized on the sender's uplink.
	depart := now
	if src.cfg.Bandwidth > 0 {
		tx := sim.Duration(float64(p.Size) / src.cfg.Bandwidth * float64(sim.Second))
		if src.txBusyUntil > depart {
			depart = src.txBusyUntil
		}
		depart = depart.Add(tx)
		src.txBusyUntil = depart
	}

	var dst *Host
	var entry *Realm
	var reason string
	if n.engine == nil {
		dst, reason = n.route(now, p, src.realm)
	} else {
		dst, entry, reason = n.routeSharded(now, p, src)
	}
	if reason != "" {
		n.drop(src.shard, reason, p)
		return
	}
	dstSite := src.Site
	if dst != nil {
		if !dst.up {
			n.drop(src.shard, "lost.hostdown", p)
			return
		}
		dstSite = dst.Site
	} else {
		// Boundary-deferred target: the chain is pinned to one site, so the
		// wide-area path (and the cross-shard lookahead bound) is the
		// site-to-site path even though the exact host resolves later.
		dstSite = entry.site
	}

	pm := n.Latency(src.Site, dstSite)
	if n.Perturb != nil && dst != nil {
		// Fault injection sees resolved host pairs only; boundary-deferred
		// packets (sharded NAT descents) bypass the hook — the destination
		// host is unknown until the owning shard translates.
		var blackhole bool
		pm, blackhole = n.Perturb(src, dst, pm)
		if blackhole {
			n.drop(src.shard, "lost.fault", p)
			return
		}
	}
	if pm.Loss > 0 && src.sim.Rand().Float64() < pm.Loss {
		n.drop(src.shard, "lost.wire", p)
		return
	}
	prop := pm.OneWay
	if pm.Jitter > 0 {
		prop += sim.Duration(src.sim.Rand().Int63n(int64(2*pm.Jitter))) - pm.Jitter
		if prop < 0 {
			prop = 0
		}
	}

	arrive := depart.Add(prop)
	if dst != nil {
		p.dest = dst
		if dst.shard == src.shard {
			src.sim.AtArg(arrive, deliverPacket, p)
			return
		}
		// Cross-shard delivery: ownership of the packet transfers to the
		// destination shard, and the engine's lane merge guarantees the
		// destination sees it in deterministic timestamp order. The engine
		// panics if arrive violates the lookahead (latency floor too small).
		packetCrossShard(p, dst.shard)
		n.engine.Send(src.shard, dst.shard, arrive, deliverPacket, p)
		return
	}
	// Boundary-deferred delivery: the packet arrives at the claiming
	// realm's boundary on that realm's shard, where the inbound descent
	// translates and resolves the final host (deliverBoundary). The owner
	// re-stamp mirrors the direct cross-shard case — the pool's
	// single-owner rule holds across the realm boundary too.
	p.entry = entry
	sh := entry.site.shard
	if sh == src.shard {
		src.sim.AtArg(arrive, deliverBoundary, p)
		return
	}
	packetCrossShard(p, sh)
	n.engine.Send(src.shard, sh, arrive, deliverBoundary, p)
}

// deliverPacket is the propagation-done callback: package-level so AtArg
// schedules it without a closure allocation per packet. It runs on the
// destination host's shard.
func deliverPacket(a any) {
	p := a.(*Packet)
	checkPacketLive(p, p.dest.shard, "deliver")
	p.dest.receive(p)
}

// drop records a packet loss, notifies the diagnostics hook, and retires
// the packet. Every packet's life ends in exactly one drop call or one
// delivered OnRecv call. sh is the shard the drop executes on (sender's
// shard for wire/route losses, destination's for host-side losses).
func (n *Network) drop(sh int, reason string, p *Packet) {
	n.statsSh[sh].Inc(reason, 1)
	n.flightDiscard(sh, reason, p.Payload)
	if n.OnDrop != nil {
		n.OnDrop(reason, p)
	}
	n.releasePacket(sh, p)
}

// flightDiscard emits a route terminal for a traced overlay payload dying
// inside the physical layer — a wire/route drop, or a transport buffer
// discarded at stream teardown. The drop is the last anyone would
// otherwise hear of the packet. The record lands in the executing shard's
// buffer (single-writer, like the stats counters) with that shard's clock,
// and the payload's trace context is consumed so an object shared between
// a retransmit buffer and the wire cannot terminate twice. The record's
// outcome is "phys."+reason, spelled out only once a record is certain, so
// an untraced drop allocates nothing.
func (n *Network) flightDiscard(sh int, reason string, payload any) {
	if n.FlightRecorder == nil {
		return
	}
	t, ok := payload.(trace.Traced)
	if !ok {
		return
	}
	id, start := t.TraceContext()
	if id == 0 {
		return
	}
	b := n.FlightRecorder.Shard(sh)
	now := b.Now()
	b.Append(trace.Record{
		Stream:  trace.StreamRoute,
		T:       int64(now),
		Trace:   id,
		LatNs:   int64(now.Sub(start)),
		Outcome: "phys." + reason,
	})
	if c, ok := payload.(trace.Cleared); ok {
		c.ClearTrace()
	}
}

// allocConnID issues a stream connection ID. The classic network keeps
// the historical global counter (IDs are stable for golden traces); a
// sharded network derives IDs from the dialing host's network-wide uid and
// a host-local counter, which is shard-safe (no global counter to race on)
// and realm-proof: private-realm hosts reuse the same RFC1918 addresses
// behind every NAT, so an IP-derived ID would collide across realms, but
// the uid is unique over the whole network regardless of realm.
func (n *Network) allocConnID(h *Host) uint64 {
	if n.engine == nil {
		n.nextConnID++
		return n.nextConnID
	}
	h.nextConnID++
	return uint64(h.uid)<<32 | (h.nextConnID & 0xffffffff)
}

// AllHosts returns every host in creation order.
func (n *Network) AllHosts() []*Host { return n.hosts }

// String summarizes the network.
func (n *Network) String() string {
	return fmt.Sprintf("phys.Network{sites=%d hosts=%d}", len(n.sites), len(n.hosts))
}

// UniformLatency returns a LatencyFunc with lan characteristics within a
// site and wan characteristics between sites.
func UniformLatency(lan, wan PathModel) LatencyFunc {
	return func(a, b *Site) PathModel {
		if a == b {
			return lan
		}
		return wan
	}
}

// MatrixLatency returns a LatencyFunc backed by a symmetric site-by-site
// matrix of one-way delays; jitter and loss apply to inter-site paths only.
func MatrixLatency(oneWay [][]sim.Duration, jitter sim.Duration, loss float64, lan PathModel) LatencyFunc {
	return func(a, b *Site) PathModel {
		if a == b {
			return lan
		}
		return PathModel{OneWay: oneWay[a.Index][b.Index], Jitter: jitter, Loss: loss}
	}
}
