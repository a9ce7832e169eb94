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
// looked up by their sites in the network's latency model. Every site (and
// so every host at it) belongs to one shard of the network.
type Site struct {
	Name  string
	shard int
}

// Shard reports which shard owns the site's events; always 0 on a one-shard
// network.
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
// Every private realm is shard-affine: the chain of realms hanging off one
// top-level boundary is pinned to a single site (and therefore a single
// shard) by the first AddHost anywhere in the chain. The boundary
// middleboxes of the chain are then only ever invoked on that shard's
// timeline — outbound translations by a sender inside the chain, inbound
// translations at send time by a sender on the owning shard and at arrival
// (deliverBoundary) for a sender on any other — so NAT mapping tables, port
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
	children []childBoundary

	// site/pinned are the realm's placement: set (with the whole chain) by
	// the first AddHost behind this realm's top-level boundary.
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
func (r *Realm) Covers(ip IP) bool { return r.HasHost(ip) || r.claimant(ip) != nil }

// claimant returns the child realm whose boundary claims ip, or nil. Claims
// is read-only by contract, so any shard may ask any chain's boundaries.
func (r *Realm) claimant(ip IP) *Realm {
	for _, cb := range r.children {
		if cb.b.Claims(ip) {
			return cb.inner
		}
	}
	return nil
}

// shard reports the shard owning this realm's middlebox timeline: the
// pinned site's shard for a private realm, 0 otherwise (root realm, or a
// chain no host was ever placed behind).
func (r *Realm) shard() int {
	if r.pinned {
		return r.site.shard
	}
	return 0
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
// packet-delivery pipeline, over one or more shards. A shard is a simulator
// with the counters, free list and connection-ID counter only its own events
// touch; NewNetwork builds the one-shard case.
type Network struct {
	Latency LatencyFunc
	// Perturb, when set, lets a fault injector rewrite the path model of
	// a single packet — adding loss or latency, or blackholing the packet
	// outright (second return true; counted as lost.fault). It runs after
	// routing and host-liveness checks, so the injector sees the actual
	// delivering hosts; a packet deferred to another shard's chain (see
	// resolve) has no delivering host yet and bypasses it.
	// internal/faults installs this hook.
	Perturb func(src, dst *Host, pm PathModel) (PathModel, bool)
	// FlightRecorder, when set, receives a route terminal for every
	// traced overlay packet the network drops (outcome "phys."+reason).
	// The tracer must carry one buffer per shard: drops emit into the
	// executing shard's buffer, preserving the single-writer merge
	// discipline.
	FlightRecorder *trace.Tracer

	sites []*Site
	root  *Realm
	hosts []*Host

	// engine carries a packet from one shard's timeline to another's; send
	// reaches for it only when two shard indices differ, which on a
	// NewNetwork network (nil engine) they never do.
	engine *sim.Sharded
	sims   []*sim.Simulator
	// stats holds the losses, one counter per shard: lost.wire,
	// lost.noroute, lost.boundary, lost.hostdown, lost.noport,
	// lost.overload, lost.fault. TotalStats is the one reader and adds the
	// counts each shard's state keeps.
	stats  *metrics.Sharded
	shards []shardState
}

// shardState is what one shard's events write on every packet. A cache
// line of padding on each side keeps it off the lines of every other
// shard's state and of whatever the allocator puts beside the slice, so two
// shards running at once never write to one line (DESIGN.md §9, "Per-shard
// state owns its cache lines").
type shardState struct {
	_ [sim.CacheLine]byte
	// pkts is the shard's packet free list: taken from and put on by the
	// shard's own events alone, so pooling needs no lock under parallel
	// execution, and a packet delivered on another shard joins that shard's.
	pkts      sim.FreeList[Packet, *Packet]
	delivered int64
	// boundIn counts inbound translations on the chains the shard owns,
	// boundOut outbound ones of the shard's senders.
	boundIn, boundOut int64
	dialed            uint64 // stream connections dialed (allocConnID)
	_                 [sim.CacheLine]byte
}

// NewNetwork creates a one-shard network on s with the given latency model.
// The root (public) realm allocates IPs starting at 128.0.0.1.
func NewNetwork(s *sim.Simulator, latency LatencyFunc) *Network {
	return newNetwork([]*sim.Simulator{s}, nil, latency)
}

// NewShardedNetwork creates a network driven by a parallel sharded engine,
// one network shard per engine shard. Sites are assigned to shards
// round-robin as they are added, hosts run on their site's shard, and
// cross-shard packets travel through the engine's deterministic lanes.
func NewShardedNetwork(eng *sim.Sharded, latency LatencyFunc) *Network {
	sims := make([]*sim.Simulator, eng.Shards())
	for i := range sims {
		sims[i] = eng.Shard(i)
	}
	return newNetwork(sims, eng, latency)
}

func newNetwork(sims []*sim.Simulator, eng *sim.Sharded, latency LatencyFunc) *Network {
	n := &Network{
		Latency: latency,
		root:    &Realm{Name: "internet", base: MustParseIP("128.0.0.1")},
		engine:  eng,
		sims:    sims,
		stats:   metrics.NewSharded(len(sims)),
	}
	n.root.net = n
	n.shards = make([]shardState, len(sims))
	for i, s := range sims {
		n.shards[i].pkts = sim.NewFreeList[Packet](s, "packet", Packet{Size: -1, Payload: "phys: use of released packet"})
	}
	return n
}

// TotalStats returns the network-wide delivery/drop counters, merged over
// the shards: the losses, delivered, boundary.in and boundary.out. Call
// between runs only.
func (n *Network) TotalStats() metrics.Counter {
	c := n.stats.Merged()
	for i := range n.shards {
		st := &n.shards[i]
		c.Inc("delivered", st.delivered)
		c.Inc("boundary.in", st.boundIn)
		c.Inc("boundary.out", st.boundOut)
	}
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

// AddSite registers a new site. Sites are spread round-robin over the
// network's shards.
func (n *Network) AddSite(name string) *Site {
	s := &Site{Name: name, shard: len(n.sites) % len(n.sims)}
	n.sites = append(n.sites, s)
	return s
}

// AddRealm creates a private realm behind boundary, attached under outer.
// Hosts added to it allocate IPs from ipBase upward. The new realm joins its
// outer chain's pin (if the chain is already pinned); otherwise the first
// AddHost behind the chain pins it.
func (n *Network) AddRealm(name string, outer *Realm, boundary Boundary, ipBase IP) *Realm {
	r := &Realm{
		Name:     name,
		net:      n,
		parent:   outer,
		boundary: boundary,
		base:     ipBase,
	}
	r.site, r.pinned = outer.site, outer.pinned
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
// address. The first host placed behind a middlebox chain pins the whole
// chain to its site's shard; every later host behind the same chain must use
// the same site (one middlebox fronts one network location, and a single
// site keeps the chain's latency well-defined).
func (n *Network) AddHost(name string, site *Site, realm *Realm, cfg HostConfig) *Host {
	if realm.parent != nil {
		switch {
		case !realm.pinned:
			realm.chainTop().pinChain(site)
		case realm.site != site:
			panic(fmt.Sprintf("phys: realm %q is pinned to site %q (shard %d); host %q at site %q must share the chain's site",
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
		ip:    ip,
		cfg:   cfg,
		up:    true,
		shard: site.shard,
		sim:   n.sims[site.shard],
	}
	h.socks = h.sockArr[:0]
	realm.hosts[ip-realm.base] = h
	n.hosts = append(n.hosts, h)
	return h
}

// resolve is the sender's half of the packet pipeline, and on one shard all
// of it. It ascends the sender's own middlebox chain applying outbound
// translations — the sender lives in that chain, so they run on the chain's
// owning shard — until some level sees the destination: a host there, or a
// child boundary that claims the address. Who then consults the claiming
// chain's middleboxes, and when, is a matter of ownership. A chain pinned to
// the sender's shard is descended here, at send time, and resolve returns the
// host the translations end at. A chain pinned to another shard is not
// touched: resolve returns its top realm, and deliverBoundary descends it on
// the owning shard when the packet arrives. A chain nobody was ever placed
// behind has no owner and no possible receiver.
func (n *Network) resolve(now sim.Time, p *Packet, src *Host) (*Host, *Realm, string) {
	for realm := src.realm; ; realm = realm.parent {
		if h := realm.host(p.Dst.IP); h != nil {
			return h, nil, ""
		}
		if entry := realm.claimant(p.Dst.IP); entry != nil {
			switch {
			case !entry.pinned:
				return nil, nil, "lost.noroute"
			case entry.site.shard != src.shard:
				return nil, entry, ""
			}
			h, reason := n.descend(now, p, entry)
			return h, nil, reason
		}
		if realm.parent == nil {
			return nil, nil, "lost.noroute"
		}
		if !realm.boundary.Outbound(now, p) {
			return nil, nil, "lost.boundary"
		}
		n.shards[src.shard].boundOut++
	}
}

// descend takes a packet through the boundary of realm entry and on down
// the chain — inbound translations, nested boundaries included — to the host
// they end at, or to a loss reason. It runs on the chain's owning shard and
// nowhere else, so every mutation of the chain's middlebox state is
// single-threaded: called by resolve when that shard is the sender's, by
// deliverBoundary when it is not.
func (n *Network) descend(now sim.Time, p *Packet, entry *Realm) (*Host, string) {
	for realm := entry; realm != nil; realm = realm.claimant(p.Dst.IP) {
		if !realm.boundary.Inbound(now, p) {
			return nil, "lost.boundary"
		}
		n.shards[entry.site.shard].boundIn++
		if h := realm.host(p.Dst.IP); h != nil {
			return h, ""
		}
	}
	return nil, "lost.noroute"
}

// deliverBoundary is the arrival of a packet whose claiming chain lives on
// another shard than its sender: it runs on the chain's shard at the packet's
// arrival time, descends the chain there and hands the packet to the resolved
// host's receive pipeline, which judges the host's liveness then.
func deliverBoundary(a any) {
	p := a.(*Packet)
	entry := p.entry
	p.entry = nil
	n, sh := entry.net, entry.site.shard
	s := n.sims[sh]
	p.Live(s, "boundary")
	h, reason := n.descend(s.Now(), p, entry)
	if reason != "" {
		n.drop(sh, reason, p)
		return
	}
	p.dest = h
	h.receive(p)
}

// send injects a packet from host src. It computes the delivery schedule
// (transmission, propagation, destination CPU) and routes through
// middleboxes. The final translated packet is handed to the destination
// socket's receive callback. All state it touches — sender clock and RNG,
// shard counters, packet pool, the middleboxes of chains the sender's shard
// owns — belongs to the sender's shard, except the final delivery schedule,
// which crosses shards through the engine when the destination lives
// elsewhere.
func (n *Network) send(src *Host, p *Packet) {
	p.Live(src.sim, "send")
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

	dst, entry, reason := n.resolve(now, p, src)
	if reason != "" {
		n.drop(src.shard, reason, p)
		return
	}
	// Where the packet lands: on the resolved host, or — deferred — on the
	// boundary of the claiming chain, on the chain's shard. That chain is
	// pinned to one site, so the wide-area path (and the cross-shard
	// lookahead bound) is the site-to-site path even though the exact host
	// resolves later.
	var (
		deliver = deliverPacket
		dstSite *Site
		to      int
	)
	if dst != nil {
		if !dst.up {
			n.drop(src.shard, "lost.hostdown", p)
			return
		}
		p.dest, dstSite, to = dst, dst.Site, dst.shard
	} else {
		p.entry, deliver, dstSite, to = entry, deliverBoundary, entry.site, entry.site.shard
	}

	pm := n.Latency(src.Site, dstSite)
	if n.Perturb != nil && dst != nil {
		// Fault injection sees resolved host pairs: every packet but one
		// deferred to another shard's chain, whose destination host is
		// unknown until that shard translates. Those bypass the hook.
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
	if to == src.shard {
		src.sim.AtArg(arrive, deliver, p)
		return
	}
	// Cross-shard delivery: ownership of the packet, and of every pooled
	// object it carries, transfers to the destination shard — the host's, or
	// the claiming chain's — and the engine's lane merge guarantees that
	// shard sees it in deterministic timestamp order. The engine panics if
	// arrive violates the lookahead (latency floor too small).
	sim.HandOff(p, n.sims[to])
	n.engine.Send(src.shard, to, arrive, deliver, p)
}

// deliverPacket is the propagation-done callback: package-level so AtArg
// schedules it without a closure allocation per packet. It runs on the
// destination host's shard.
func deliverPacket(a any) {
	p := a.(*Packet)
	p.Live(p.dest.sim, "deliver")
	p.dest.receive(p)
}

// drop records a packet loss and retires the packet. Every packet's life ends in exactly one drop call or one
// delivered OnRecv call. sh is the shard the drop executes on (sender's
// shard for wire/route losses, destination's for host-side losses).
func (n *Network) drop(sh int, reason string, p *Packet) {
	n.stats.Shard(sh).Inc(reason, 1)
	n.flightDiscard(sh, reason, p.Payload)
	n.shards[sh].pkts.Put(p, "drop")
}

// flightDiscard emits a route terminal for a traced overlay payload dying
// inside the physical layer — a wire/route drop, or a transport buffer
// discarded at stream teardown. The drop is the last anyone would
// otherwise hear of the packet. The record lands in the executing shard's
// buffer (single-writer, like the stats counters) with that shard's clock,
// and the payload's trace context is consumed so an object shared between
// a retransmit buffer and the wire cannot terminate twice. The record's
// outcome is trace.OutcomePhysicalDrop+reason, spelled out only once a
// record is certain, so an untraced drop allocates nothing.
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
		Outcome: trace.OutcomePhysicalDrop + reason,
	})
	t.ClearTrace()
}

// allocConnID issues a stream connection ID: the dialing host's shard in the
// high bits over that shard's own counter, so no two shards race on a
// counter and no two dials share an ID. Listeners demultiplex streams by
// connection ID alone, and private-realm hosts reuse the same RFC1918
// addresses behind every NAT, so nothing derived from the dialer's address
// would do. On shard 0 — all of a one-shard network — the IDs are the plain
// sequence 1, 2, 3, …
func (n *Network) allocConnID(h *Host) uint64 {
	st := &n.shards[h.shard]
	st.dialed++
	return uint64(h.shard)<<48 | st.dialed
}

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
