package brunet

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"wow/internal/metrics"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/trace"
)

// Config carries a node's protocol constants. Zero values select the
// paper-faithful defaults (DefaultConfig), which are deliberately
// conservative — the paper tuned Brunet for heavily loaded PlanetLab hosts
// and accepts ~150s to abandon a dead URI (§IV-D footnote 2). What no
// caller varies is a constant beside the code that reads it: nearPerSide,
// maxHops, linkBackoff, suspectRetries and relinkRetries.
type Config struct {
	// Port is the UDP port to bind; 0 picks an ephemeral port.
	Port uint16
	// FarCount is k, the number of structured-far connections (§IV-A).
	FarCount int

	// PingInterval / PingTimeout / PingRetries drive keepalives. Dead
	// peers are detected after roughly PingInterval +
	// PingTimeout·(2^(PingRetries+1)−1).
	PingInterval sim.Duration
	PingTimeout  sim.Duration
	PingRetries  int

	// AdaptiveRTO switches the ping deadline from the fixed PingTimeout
	// to the per-connection estimate srtt + rtoK·rttvar (Jacobson/Karn),
	// clamped to [rtoMin, rtoMax]. The estimators run either way — only
	// the deadline derivation is gated — so flipping the knob mid-run
	// takes effect with whatever samples the connection already has.
	AdaptiveRTO bool

	// JitterSeed, when non-zero, gives the node a private protocol-jitter
	// RNG seeded JitterSeed^hash(addr) instead of drawing from the shared
	// simulator RNG. Per-node draws make the protocol's jitter sequence a
	// function of the node alone, so a run's outcome is identical across
	// serial and sharded engines and across shard counts.
	JitterSeed int64

	// LinkResend is the initial link-request resend interval, which
	// linkBackoff multiplies on every retry; after LinkRetries unanswered
	// sends the linker moves to the target's next URI.
	LinkResend  sim.Duration
	LinkRetries int

	// StatusInterval paces ring-neighborhood gossip on near links.
	StatusInterval sim.Duration
	// FarInterval paces the far-connection overlord's top-up checks.
	FarInterval sim.Duration

	// RelinkBase drives connection-table repair: a structured peer lost
	// involuntarily (ping timeout, stream death) is remembered and
	// re-linked with jittered exponential backoff
	// (RelinkBase·2^attempt + U[0, RelinkBase)) for up to relinkRetries
	// attempts — so a healed partition re-merges without waiting for
	// bootstrap or gossip rounds, and without a reconnection stampede.
	RelinkBase sim.Duration

	// TunnelUpgradeInterval paces a tunnel edge's direct-link upgrade
	// probes: every interval the tunnel overlord routes a fresh CTM to
	// the tunnel peer, re-running bidirectional linking with current
	// URIs so the tunnel upgrades in place to a direct edge as soon as
	// hole punching becomes possible (NAT relaxed, mapping migrated,
	// node moved). The probes double as relay-candidate refresh.
	TunnelUpgradeInterval sim.Duration

	// PrivateFirst flips the linking protocol's URI trial order to try
	// private endpoints before NAT-learned ones; an ablation knob for
	// the Figure 5 regime-3 delay.
	PrivateFirst bool

	// Transport selects the link transport this node advertises in its
	// URIs: "udp" (the default, used in all the paper's experiments) or
	// "tcp" (for sites whose middleboxes drop UDP). Nodes accept links
	// over both transports regardless.
	Transport string

	// Shortcut configures the ShortcutConnectionOverlord; nil disables
	// shortcut creation (the paper's "shortcuts disabled" baseline).
	Shortcut *ShortcutConfig
}

// ShortcutConfig parameterizes adaptive shortcut creation (§IV-E); the
// recurrence's service rate, tick, idle drop and retry cool-down are the
// constants beside shortcutOverlord.
type ShortcutConfig struct {
	// Threshold is the score that triggers shortcut establishment.
	Threshold float64
}

// DefaultConfig returns the paper-faithful constants.
func DefaultConfig() Config {
	return Config{
		FarCount:       8,
		PingInterval:   15 * sim.Second,
		PingTimeout:    5 * sim.Second,
		PingRetries:    3,
		LinkResend:     5 * sim.Second,
		LinkRetries:    4, // 5+10+20+40+80 ≈ 155s per dead URI, as in §V-B
		StatusInterval: 15 * sim.Second,
		FarInterval:    30 * sim.Second,
		RelinkBase:     10 * sim.Second,

		TunnelUpgradeInterval: 60 * sim.Second,

		Shortcut: DefaultShortcutConfig(),
	}
}

// DefaultShortcutConfig returns the shortcut threshold calibrated so steady
// 1 packet/s traffic (the paper's ICMP probes) triggers a shortcut after
// roughly 20 seconds.
func DefaultShortcutConfig() *ShortcutConfig {
	return &ShortcutConfig{Threshold: 15}
}

// FastTestConfig returns aggressive constants for unit tests that don't
// measure paper timings.
func FastTestConfig() Config {
	c := DefaultConfig()
	c.PingInterval = 5 * sim.Second
	c.PingTimeout = sim.Second
	c.PingRetries = 2
	c.LinkResend = 200 * sim.Millisecond
	c.LinkRetries = 3
	c.StatusInterval = 2 * sim.Second
	c.FarInterval = 3 * sim.Second
	c.RelinkBase = sim.Second
	c.TunnelUpgradeInterval = 3 * sim.Second
	return c
}

// defaulted resolves one numeric Config field: zero means "unset, take the
// default".
func defaulted[T int | sim.Duration](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	c.FarCount = defaulted(c.FarCount, d.FarCount)
	c.PingInterval = defaulted(c.PingInterval, d.PingInterval)
	c.PingTimeout = defaulted(c.PingTimeout, d.PingTimeout)
	c.PingRetries = defaulted(c.PingRetries, d.PingRetries)
	c.LinkResend = defaulted(c.LinkResend, d.LinkResend)
	c.LinkRetries = defaulted(c.LinkRetries, d.LinkRetries)
	c.StatusInterval = defaulted(c.StatusInterval, d.StatusInterval)
	c.FarInterval = defaulted(c.FarInterval, d.FarInterval)
	c.RelinkBase = defaulted(c.RelinkBase, d.RelinkBase)
	c.TunnelUpgradeInterval = defaulted(c.TunnelUpgradeInterval, d.TunnelUpgradeInterval)
	if c.Transport == "" {
		c.Transport = "udp"
	}
}

// Node is one Brunet P2P router. WOW compute nodes embed a Node (via
// internal/ipop) and PlanetLab bootstrap routers run bare Nodes.
type Node struct {
	// What a forwarded packet reads of its router comes first, ahead of
	// the 136-byte cfg, so a transit hop touches the head of the struct
	// and nothing else of it: everything down to occ shares one cache
	// line (TestHotFieldsLayout pins it).
	addr Addr
	up   bool
	sock *phys.UDPSock
	// flight is the node's flight-recorder handle (EnableTrace); nil —
	// the default — disables all tracing at the cost of one nil check
	// per origination.
	flight *flightRecorder
	// statForwarded is Stats' route.forwarded cell, held here so a transit
	// hop counts itself with one store through a pointer on this line.
	statForwarded metrics.Handle
	// occ summarizes table for lookup: bit b is set exactly while some
	// connection's peer address has b as its top six bits (see tableInsert).
	occ uint64

	// table is the connection table (see table.go): every live connection
	// in address order. roleCount[t] is the number of live connections
	// carrying role t.
	table     connIndex
	roleCount [numConnTypes]int

	host *phys.Host
	sim  *sim.Simulator
	cfg  Config

	linkers map[Addr]*linker
	// busyRetry counts the busy races lost in a row toward a peer; made at
	// the first one (handleLinkError), which most nodes never see.
	busyRetry map[Addr]int
	learned   uriSet
	private   URI
	uris      []URI // cached URIs() result; nil when learned or private changed
	bootstrap []URI
	slisten   *phys.StreamListener

	handlers map[string]func(src Addr, d AppData)
	// onConn and onDisc are the observers registered through onConnection
	// and onDisconnection (in-package tests: the conn-table shadow oracle);
	// the overlords are called directly (notifyConn).
	onConn []func(*Connection)
	onDisc []func(*Connection)

	// near, far, repair and tun point into the one overlords block Start
	// makes; sco is made apart, only when shortcuts are configured. All are
	// nil while the node is stopped.
	near   *nearOverlord
	far    *farOverlord
	sco    *shortcutOverlord
	repair *repairOverlord
	tun    *tunnelOverlord

	tokenSeq uint64
	pingSeq  uint64
	// keepalive is the node's one liveness timer, armed at the due key of
	// armed: of the connections in the table, the one whose keepalive step
	// comes first (see setDue). Both are zero while the table is empty.
	keepalive sim.Timer
	armed     *Connection

	// rng is the node-private protocol-jitter source (Config.JitterSeed);
	// nil means draw from the shared simulator RNG as before.
	rng *rand.Rand
	// relayed tracks the tunnel pairs this node has recently carried
	// frames for, keyed by normalized (From,To); its fresh-entry count is
	// the relay load advertised in pongs and CTM NeighborInfo.
	relayed map[relayPair]sim.Time

	// Stats counts protocol events (link attempts, routed packets,
	// shortcut formations, …): the Counters family, one cell per name.
	Stats metrics.Counter

	// pool is the free lists of the shard this node's host lives on (see
	// shardPool): every overlay packet, CTM message, tunnel frame, link
	// message and ping the node sends comes from there, and whichever node
	// ends one's life puts it on its own shard's.
	pool *shardPool
	// bye is the node's close announcement, made at its first use (closing).
	bye *closeMsg
}

// shardPool holds one shard's free lists of overlay packets, CTM messages,
// tunnel frames, link messages, pings and linkers (DESIGN.md §6, "Who owns a
// packet"). Every node of the shard shares it and only the shard's goroutine
// touches it, so it needs no lock; NewNode finds it on the shard's Simulator
// (sim.Simulator.Local). What one node releases the next sender on the shard
// takes, so traffic that stays on the shard keeps a list as long as the most
// objects it had in flight, whichever way it runs. Objects that cross shards
// are not so bounded: a list holds the largest excess of releases over
// acquires its shard has ever seen, and only an exchange whose answer is taken
// from the lists its request is released on — a CTM and its reply (packet and
// message), a link request and its reply, a ping and its pong — leaves every
// shard it touches where it found it. A cache line of padding on each side
// keeps the pools of two shards, made one after the other as each shard's
// first node is built, off each other's lines (DESIGN.md §9, "Per-shard
// state owns its cache lines").
type shardPool struct {
	_    [sim.CacheLine]byte
	pkts sim.FreeList[OverlayPacket, *OverlayPacket]
	// ctms holds the messages CTM packets carry: taken with the packet, put
	// back with it (Node.release).
	ctms   sim.FreeList[ctmMsg, *ctmMsg]
	frames sim.FreeList[tunnelFrame, *tunnelFrame]
	links  sim.FreeList[linkMsg, *linkMsg]
	pings  sim.FreeList[pingMsg, *pingMsg]
	// linkers is not traffic: a linker lives on its node, from launchLinker
	// to finish.
	linkers sim.FreeList[linker, *linker]
	_       [sim.CacheLine]byte
}

// shardPoolKey is the pool's key among its Simulator's locals.
type shardPoolKey struct{}

// poisonPayload is what the packetdebug list leaves where a released object
// pointed at its message.
const poisonPayload = "brunet: use of released pooled object"

func newShardPool(s *sim.Simulator) any {
	return &shardPool{
		pkts: sim.NewFreeList[OverlayPacket](s, "overlay packet",
			OverlayPacket{Size: -1, Hops: -1, Payload: poisonPayload}),
		ctms:    sim.NewFreeList[ctmMsg](s, "CTM message", ctmMsg{Type: -1}),
		frames:  sim.NewFreeList[tunnelFrame](s, "tunnel frame", tunnelFrame{Size: -1, Inner: poisonPayload}),
		links:   sim.NewFreeList[linkMsg](s, "link message", linkMsg{Type: -1, Seq: -1}),
		pings:   sim.NewFreeList[pingMsg](s, "ping", pingMsg{Load: -1}),
		linkers: sim.NewFreeList[linker](s, "linker", linker{ctype: -1, uriIdx: -1}),
	}
}

// NewNode creates a node with the given overlay address on a physical
// host. Call Start to bind the socket and join the overlay.
func NewNode(host *phys.Host, addr Addr, cfg Config) *Node {
	cfg.fillDefaults()
	n := &Node{
		addr:     addr,
		host:     host,
		sim:      host.Sim(),
		cfg:      cfg,
		linkers:  make(map[Addr]*linker),
		handlers: make(map[string]func(src Addr, d AppData)),
		Stats:    Counters.New(),
		pool:     host.Sim().Local(shardPoolKey{}, newShardPool).(*shardPool),
	}
	if cfg.JitterSeed != 0 {
		h := fnv.New64a()
		h.Write(addr[:])
		n.rng = rand.New(rand.NewSource(cfg.JitterSeed ^ int64(h.Sum64())))
	}
	n.statForwarded = n.Stats.Handle("route.forwarded")
	return n
}

// closing returns the node's close announcement: one message for every drop
// and every stale-ping answer, never written after it is made.
func (n *Node) closing() *closeMsg {
	if n.bye == nil {
		n.bye = &closeMsg{From: n.addr}
	}
	return n.bye
}

// rand returns the node's protocol-jitter source: the private per-node
// RNG when Config.JitterSeed is set, the shared simulator RNG otherwise.
func (n *Node) rand() *rand.Rand {
	if n.rng != nil {
		return n.rng
	}
	return n.sim.Rand()
}

// relayPair is a normalized (lower, higher) tunnel-endpoint pair.
type relayPair struct{ a, b Addr }

// noteRelayed records that this node just carried a tunnel frame for the
// pair (x, y); the pair counts toward the node's advertised relay load
// until its entry goes stale.
func (n *Node) noteRelayed(x, y Addr) {
	if y.Less(x) {
		x, y = y, x
	}
	if n.relayed == nil {
		n.relayed = make(map[relayPair]sim.Time)
	}
	n.relayed[relayPair{x, y}] = n.sim.Now()
}

// relayLoad counts the tunnel pairs this node is currently carrying:
// entries refreshed within two keepalive intervals (an active tunnel's
// pings traverse its relay at least once per PingInterval). Stale entries
// are pruned in passing; only the count leaves this function, so map
// iteration order cannot leak into behavior.
func (n *Node) relayLoad() int {
	if len(n.relayed) == 0 {
		return 0
	}
	horizon := 2 * n.cfg.PingInterval
	now := n.sim.Now()
	count := 0
	for k, at := range n.relayed {
		if now.Sub(at) > horizon {
			delete(n.relayed, k)
			continue
		}
		count++
	}
	return count
}

// Addr returns the node's 160-bit overlay address.
func (n *Node) Addr() Addr { return n.addr }

// Host returns the physical host the node runs on.
func (n *Node) Host() *phys.Host { return n.host }

// Config returns the node's protocol constants.
func (n *Node) Config() Config { return n.cfg }

// Up reports whether the node is started.
func (n *Node) Up() bool { return n.up }

// URIs returns the node's advertised URI list in linking-trial order:
// NAT-learned public endpoints first, the private endpoint next — the
// order IPOP uses and the cause of the Fig. 5 regime-3 delay
// (Config.PrivateFirst reverses it) — and finally the private endpoint's
// alternate-transport variant, since every node accepts links on both
// transports (§IV-A: "a P2P node may have multiple URIs").
//
// The list is built once and shared: every call returns the same slice
// until the node learns a URI or rebinds. It is immutable — peers keep it
// (Connection.URIs, candidate stashes, relink state), possibly on another
// shard — so a change drops the reference and the next call builds a new
// array; nothing ever writes the old one. Callers must not modify it.
func (n *Node) URIs() []URI {
	if n.uris != nil {
		return n.uris
	}
	alt := n.private
	if n.cfg.Transport == "tcp" {
		alt.Transport = "udp"
	} else {
		alt.Transport = "tcp"
	}
	pub := n.learned.list
	out := make([]URI, 0, len(pub)+2)
	if n.cfg.PrivateFirst {
		out = append(out, n.private)
		out = append(out, pub...)
	} else {
		out = append(out, pub...)
		out = append(out, n.private)
	}
	n.uris = append(out, alt)
	return n.uris
}

// BootstrapURI returns the URI a new node should be configured with to
// bootstrap off this (public) node: its private endpoint on its preferred
// transport.
func (n *Node) BootstrapURI() URI { return n.private }

// learnURI records an observed public endpoint; reports whether new.
// Only UDP observations are kept: a TCP observation is the ephemeral port
// of an outbound stream — useless for calling back (TCP links into NATed
// or firewalled nodes are always established by the inside node dialing
// out).
func (n *Node) learnURI(u URI) bool {
	if u.IsZero() || u == n.private || u.Transport == "tcp" {
		return false
	}
	if !n.learned.add(u) {
		return false
	}
	n.uris = nil
	return true
}

// RegisterProto installs the handler for tunnelled application data with
// the given protocol label (IPOP registers "ipop").
func (n *Node) RegisterProto(proto string, h func(src Addr, d AppData)) {
	n.handlers[proto] = h
}

// onConnection registers a callback invoked whenever a connection is
// created or gains a role, after the node's own overlords have seen it.
func (n *Node) onConnection(f func(*Connection)) { n.onConn = append(n.onConn, f) }

// onDisconnection registers a callback invoked whenever a connection dies,
// after the node's own overlords have seen it.
func (n *Node) onDisconnection(f func(*Connection)) { n.onDisc = append(n.onDisc, f) }

// notifyConn tells the running overlords, near, repair and tunnel in that
// order, then the registered observers, that c is up or has gained a role.
func (n *Node) notifyConn(c *Connection) {
	if n.near != nil {
		n.near.onConnection(c)
		n.repair.onConnection(c)
		n.tun.onConnection(c)
	}
	for _, f := range n.onConn {
		f(c)
	}
}

// notifyDisc is notifyConn for a connection that died.
func (n *Node) notifyDisc(c *Connection) {
	if n.near != nil {
		n.near.onDisconnection(c)
		n.repair.onDisconnection(c)
		n.tun.onDisconnection(c)
	}
	for _, f := range n.onDisc {
		f(c)
	}
}

// overlords is the block a node's Start makes for the connection overlords
// every router runs (shortcuts are optional and made apart): one object per
// start. A restart makes a new block; the old one lives on only while timers
// it armed are pending, and they find it no longer the node's.
type overlords struct {
	near   nearOverlord
	far    farOverlord
	repair repairOverlord
	tun    tunnelOverlord
}

// Start binds the node's socket and begins joining the overlay through the
// bootstrap URIs (§IV-C): establish a leaf connection, locate the node's
// ring position by routing a CTM to its own address, then link with its
// nearest neighbors. With no bootstrap URIs the node founds a new ring.
func (n *Node) Start(bootstrap []URI) error {
	if n.up {
		return fmt.Errorf("brunet: node %s already started", n.addr)
	}
	// Bind the UDP socket and the TCP-transport listener on the same
	// port number (separate wire namespaces). With an ephemeral port the
	// matching TCP port may be taken by another node's outbound streams
	// on a shared host (the paper's multi-router PlanetLab hosts), so
	// retry with fresh ports.
	var sock *phys.UDPSock
	var sl *phys.StreamListener
	for attempt := 0; ; attempt++ {
		var err error
		sock, err = n.host.Listen(n.cfg.Port)
		if err != nil {
			return fmt.Errorf("brunet: node %s: %w", n.addr, err)
		}
		sl, err = n.host.ListenStream(sock.Port(), n.acceptStream)
		if err == nil {
			break
		}
		sock.Close()
		if n.cfg.Port != 0 || attempt > 128 {
			return fmt.Errorf("brunet: node %s: %w", n.addr, err)
		}
	}
	n.sock = sock
	n.sock.OnRecv = n.recv
	n.slisten = sl
	n.private = URI{Transport: n.cfg.Transport, EP: sock.LocalEndpoint()}
	n.uris = nil
	n.bootstrap = append([]URI(nil), bootstrap...)
	n.up = true
	if n.table.slots == nil {
		// Room for the structured links the overlords aim at, made once:
		// Stop keeps the array for a restart.
		n.table.slots = make([]slot, 0, 2*nearPerSide+n.cfg.FarCount+tableSlack)
	}

	o := &overlords{
		near:   nearOverlord{node: n},
		far:    farOverlord{node: n},
		repair: repairOverlord{node: n},
		tun:    tunnelOverlord{node: n},
	}
	n.near, n.far, n.repair, n.tun = &o.near, &o.far, &o.repair, &o.tun
	// The tickers' interval jitter draws from the node's own jitter source
	// (see Config.JitterSeed).
	n.near.maintain()
	n.sim.StartTicker(&o.near.ticker, n.cfg.StatusInterval, n.cfg.StatusInterval/5, n.rng, nearTickFired, &o.near)
	n.sim.StartTicker(&o.far.ticker, n.cfg.FarInterval, n.cfg.FarInterval/5, n.rng, farTickFired, &o.far)
	if n.cfg.Shortcut != nil {
		sco := newShortcutOverlord(n, *n.cfg.Shortcut)
		n.sim.StartTicker(&sco.ticker, shortcutTick, shortcutTick/10, n.rng, shortcutTickFired, sco)
		n.sco = sco
	}
	// The health sampler runs jitter-free (no RNG draw) and read-only, so
	// arming it adds events without perturbing any protocol decision.
	if n.flight != nil && n.flight.health > 0 {
		n.sim.StartTicker(&n.flight.ticker, n.flight.health, 0, n.rng, flightHealthFired, n)
	}
	return nil
}

// tableSlack is the connection table's room, at its first Start, beyond the
// near and far links the overlords aim at: the leaf, shortcuts, relays and a
// link or two more than the target while trimming catches up.
const tableSlack = 4

// Stop kills the node ungracefully — the moral equivalent of the paper's
// "killing and restarting the user-level IPOP program" during VM
// migration. No close messages are sent; peers discover the death through
// ping timeouts.
func (n *Node) Stop() {
	if !n.up {
		return
	}
	n.up = false
	n.near.ticker.Stop()
	n.far.ticker.Stop()
	if n.sco != nil {
		n.sco.ticker.Stop()
	}
	if n.flight != nil {
		n.flight.ticker.Stop()
	}
	for _, lk := range n.linkers {
		lk.finish(false)
	}
	n.arm(nil)
	for _, s := range n.table.slots {
		c := s.c
		c.closed = true
		if c.Stream != nil {
			c.Stream.Close()
		}
	}
	n.table.reset()
	n.occ = 0
	n.roleCount = [numConnTypes]int{}
	n.sock.Close()
	if n.slisten != nil {
		n.slisten.Close()
		n.slisten = nil
	}
	n.near, n.far, n.sco, n.repair, n.tun = nil, nil, nil, nil, nil
	n.learned = uriSet{}
	n.uris = nil
	n.relayed = nil
}

// Leave gracefully departs. Structured-near neighbors get a handoff
// (leaveMsg): besides closing the link it introduces the departing node's
// other ring neighbors, so the two nodes either side of the hole link to
// each other immediately instead of discovering the death by ping timeout
// and re-converging through status gossip — the graceful path that shrinks
// the §V-C migration no-routability window. All other connections get a
// plain close.
func (n *Node) Leave() {
	if !n.up {
		return
	}
	// The handoff names every near neighbor the node had on entry, also
	// those this loop has dropped by the time a later one is told.
	nears := make([]*Connection, 0, n.roleCount[StructuredNear])
	for _, s := range n.table.slots {
		if s.c.Has(StructuredNear) {
			nears = append(nears, s.c)
		}
	}
	for _, c := range nears {
		msg := leaveMsg{From: n.addr}
		for _, o := range nears {
			if o.Peer == c.Peer {
				continue
			}
			msg.Neighbors = append(msg.Neighbors, NeighborInfo{Addr: o.Peer, URIs: o.URIs})
		}
		n.sendConn(c, statusMsgSize+24*len(msg.Neighbors), msg)
		n.Stats.Add(cHandoffSent, 1)
		n.dropConnection(c, false, dropLeave) // leaveMsg already closes
	}
	for c := n.firstConn(allRoles); c != nil; c = n.connAfter(c, allRoles) {
		n.dropConnection(c, true, dropLeave)
	}
	n.Stop()
}

// IsRoutable reports whether the node holds structured-near connections on
// both ring sides (or is alone on the ring) — the paper's "fully routable"
// condition at the end of the join procedure.
func (n *Node) IsRoutable() bool {
	if !n.up {
		return false
	}
	if n.roleCount[StructuredNear] == 0 {
		return len(n.bootstrap) == 0 // ring founder
	}
	// With one near connection the ring has exactly two nodes; the
	// single link covers both sides.
	return true
}

// sendDirect transmits a link-layer message over the physical network.
func (n *Node) sendDirect(ep phys.Endpoint, size int, payload any) {
	if !n.up {
		return
	}
	n.sock.Send(ep, size, payload)
}

// wire identifies how a received message's sender can be answered: a UDP
// endpoint, a TCP-transport stream, or a tunnel (relay-forwarded frames).
type wire struct {
	ep     phys.Endpoint
	stream *phys.Stream
	// tpeer/tvia are set for messages unwrapped from a tunnelFrame: the
	// tunnel peer the message came from, and the relay that carried it
	// (replies go back through the same relay). tobs is the sender's
	// physical endpoint as stamped by the relay — the only endpoint
	// observation tunnel endpoints ever get of each other.
	tpeer Addr
	tvia  Addr
	tobs  URI
}

// isTunnel reports whether the message arrived through a tunnel edge.
func (w wire) isTunnel() bool { return !w.tpeer.IsZero() }

// observed returns the sender's NAT-translated endpoint as seen here.
// Tunnel wires have no directly-observed endpoint.
func (w wire) observed() phys.Endpoint {
	if w.isTunnel() {
		return phys.Endpoint{}
	}
	if w.stream != nil {
		return w.stream.RemoteEndpoint()
	}
	return w.ep
}

// transport names the wire's transport.
func (w wire) transport() string {
	if w.isTunnel() {
		return "tunnel"
	}
	if w.stream != nil {
		return "tcp"
	}
	return "udp"
}

// replyTo answers over the same wire the message arrived on. Tunnel
// replies are wrapped in a frame and returned through the relay that
// carried the request.
func (n *Node) replyTo(w wire, size int, payload any) {
	if !n.up {
		return
	}
	if w.isTunnel() {
		rc, ok := n.lookup(w.tvia)
		if !ok || rc.closed || rc.Tunneled() {
			n.Stats.Add(cTunnelNoReturn, 1)
			return
		}
		n.sendFrame(rc, w.tpeer, size, payload)
		return
	}
	if w.stream != nil {
		unpool(payload)
		w.stream.SendMsg(size, payload)
		return
	}
	n.sendDirect(w.ep, size, payload)
}

// recv dispatches incoming datagrams.
func (n *Node) recv(p *phys.Packet) {
	n.handleWire(wire{ep: p.Src}, p.Payload)
}

// acceptStream hooks an inbound TCP-transport link into the dispatcher.
func (n *Node) acceptStream(st *phys.Stream) {
	w := wire{stream: st}
	st.OnMessage(func(size int, payload any) { n.handleWire(w, payload) })
}

// handleWire dispatches one link-layer message from either transport.
func (n *Node) handleWire(w wire, payload any) {
	if !n.up {
		// A stopped node silently eats anything still addressed to it;
		// give traced packets a terminal instead of a vanishing act.
		n.flightDrop(payload, trace.OutcomeNodeDown)
		return
	}
	switch m := payload.(type) {
	case *linkMsg:
		m.Live(n.sim, "handleWire")
		switch {
		case m.refusal != 0:
			n.handleLinkError(m)
		case m.Reply:
			n.handleLinkReply(w, m)
		default:
			n.handleLinkRequest(w, m)
		}
		n.pool.links.Put(m, "handleWire")
	case *pingMsg:
		m.Live(n.sim, "handleWire")
		if m.Pong {
			if c, ok := n.lookup(m.From); ok {
				n.handlePong(c, m)
			}
			n.pool.pings.Put(m, "handleWire")
			return
		}
		c, ok := n.lookup(m.From)
		if !ok {
			// A ping for a connection we no longer hold — the
			// sender's state is stale (we timed it out after its
			// NAT rebound, or it outlived a crash). Tell it to drop
			// the zombie so its overlords re-establish properly
			// (§V-E: "detecting broken links and re-establishing
			// them").
			n.Stats.Add(cPingStale, 1)
			n.replyTo(w, pingMsgSize, n.closing())
			return
		}
		n.touch(c)
		// Endpoint roaming: a known peer pinging from a new address
		// means its NAT rebound the mapping (§V-E); adopt the fresh
		// endpoint so our return path follows the translation change.
		if c.Stream == nil && w.stream == nil && !w.isTunnel() && !c.Tunneled() && w.ep != c.EP {
			c.EP = w.ep
			n.Stats.Add(cConnEPRoamed, 1)
		}
		m.From, m.Pong, m.Load = n.addr, true, n.relayLoad()
		n.replyTo(w, pingMsgSize, m)
	case *closeMsg:
		if c, ok := n.lookup(m.From); ok {
			n.dropConnection(c, false, dropPeerClose)
		}
	case leaveMsg:
		n.handleLeave(m)
	case suspectMsg:
		n.handleSuspect(m)
	case *tunnelFrame:
		n.handleTunnelFrame(w, m)
	case tunnelNoRoute:
		if n.tun != nil {
			n.tun.noRoute(m.Relay, m.To)
		}
	case *statusMsg:
		if c, ok := n.lookup(m.From); ok {
			n.touch(c)
		}
		if n.near != nil {
			n.near.handleStatus(m)
		}
	case *OverlayPacket:
		m.Live(n.sim, "handleWire")
		if c, ok := n.lookup(m.Src); ok {
			n.touch(c)
		}
		n.routePacket(m, m.Src)
	default:
		n.Stats.Add(cRecvUnknown, 1)
	}
}

// SendTo originates an overlay packet carrying application data toward the
// node owning dst.
func (n *Node) SendTo(dst Addr, mode DeliveryMode, d AppData) {
	if !n.up {
		return
	}
	// Pooled origination: the AppData lives inside the packet and Payload
	// boxes a pointer to it, so a SendTo on the hot path allocates nothing
	// once the shard's list holds what the shard keeps in flight.
	pkt := n.pool.pkts.Get()
	pkt.Src, pkt.Dst, pkt.Mode = n.addr, dst, mode
	pkt.Size = overlayHdrSize + d.Size
	pkt.app = d
	pkt.Payload = &pkt.app
	if n.sco != nil {
		n.sco.observe(dst, 1)
	}
	n.routePacket(pkt, n.addr)
}

// maxHops bounds overlay routing: a packet that has taken this many hops is
// dropped (route.hops_exceeded) instead of forwarded.
const maxHops = 100

// routePacket implements greedy routing (§IV-A): forward to the structured
// connection closest to the destination; deliver locally when no neighbor
// is strictly closer. Packets arriving over a leaf connection are never
// bounced straight back to the leaf child (the leaf target acts as the
// child's forwarding agent into the ring).
func (n *Node) routePacket(pkt *OverlayPacket, from Addr) {
	pkt.Live(n.sim, "routePacket")
	if !n.up {
		if n.flight != nil && pkt.Trace != 0 {
			n.flightTerminal(pkt, trace.OutcomeNodeDown)
		}
		n.release(pkt, "routePacket (node down)")
		return
	}
	// Sampling happens at origination only: a packet entering the router
	// with zero hops from this node's own address.
	if n.flight != nil && pkt.Trace == 0 && pkt.Hops == 0 && from == n.addr {
		n.flightSample(pkt)
	}
	if pkt.Dst == n.addr {
		n.deliver(pkt)
		n.release(pkt, "routePacket (delivered)")
		return
	}
	if pkt.Hops >= maxHops {
		n.Stats.Add(cRouteHopsExceeded, 1)
		if n.flight != nil && pkt.Trace != 0 {
			n.flightTerminal(pkt, trace.OutcomeHopsExceeded)
		}
		n.release(pkt, "routePacket (hops exceeded)")
		return
	}
	best := n.nearestConn(pkt.Dst, from)
	if best == nil || (best.Peer != pkt.Dst && pkt.Dst.CmpRingDist(best.Peer, n.addr) >= 0) {
		// Nobody closer: we are the nearest live node.
		n.deliver(pkt)
		n.release(pkt, "routePacket (nearest)")
		return
	}
	pkt.Hops++
	n.statForwarded.Inc(1)
	n.sendConn(best, pkt.Size, pkt)
	// After sendConn, so a tunnel hop's record names the relay this very
	// frame used; a packet that died inside sendConn has had its context
	// consumed by the terminal record and skips the hop record here.
	if n.flight != nil && pkt.Trace != 0 {
		n.flightHop(pkt, best)
	}
}

// release ends the life of a packet at its routing terminal: the packet goes
// on the shard's list, and a CTM's message on the CTM list with it. A packet
// the lists let go of (a stream carried it: unpool) keeps its message.
func (n *Node) release(pkt *OverlayPacket, where string) {
	m, _ := pkt.Payload.(*ctmMsg)
	if n.pool.pkts.Put(pkt, where) && m != nil {
		n.pool.ctms.Put(m, where)
	}
}

// deliver terminates a packet at this node. Exact-mode packets for another
// address die here (we are merely the nearest neighbor of a down node);
// nearest-mode packets are consumed, which is what lets CTMs find ring
// positions and far targets.
func (n *Node) deliver(pkt *OverlayPacket) {
	pkt.Live(n.sim, "deliver")
	exact := pkt.Dst == n.addr
	if !exact && pkt.Mode == DeliverExact {
		n.Stats.Add(cRouteDeadLetter, 1)
		if n.flight != nil && pkt.Trace != 0 {
			n.flightTerminal(pkt, trace.OutcomeDeadLetter)
		}
		return
	}
	if n.flight != nil && pkt.Trace != 0 {
		if exact {
			n.flightTerminal(pkt, trace.OutcomeDelivered)
		} else {
			n.flightTerminal(pkt, trace.OutcomeNearest)
		}
	}
	switch m := pkt.Payload.(type) {
	case *ctmMsg:
		m.Live(n.sim, "deliver")
		switch m.Kind {
		case kindRequest:
			n.handleCTMRequest(pkt, m, exact)
		case kindReply:
			n.handleCTMReply(m)
		case kindForwardedReply:
			n.handleForwarded(pkt, m)
		default:
			n.Stats.Add(cRecvUnknownOverlay, 1)
		}
	case *AppData:
		// The AppData is inline in the packet; hand the handler a copy,
		// since the packet is released right after this.
		n.deliverApp(pkt.Src, *m)
	default:
		n.Stats.Add(cRecvUnknownOverlay, 1)
	}
}

// deliverApp dispatches delivered application data to its protocol
// handler.
func (n *Node) deliverApp(src Addr, m AppData) {
	n.Stats.Add(cRouteDelivered, 1)
	if n.sco != nil {
		n.sco.observe(src, 1)
	}
	if h, ok := n.handlers[m.Proto]; ok {
		h(src, m)
	} else {
		n.Stats.Add(cRecvNoProto, 1)
	}
}

// relayCandidates fills m's relay list with this node's directly-connected
// peers (capped, in address order): the connection-table exchange that lets
// two nodes that cannot link directly find mutual neighbors to tunnel
// through.
func (n *Node) relayCandidates(m *ctmMsg) {
	k := 0
	for _, s := range n.table.slots {
		if k == tunnelMaxRelays {
			break
		}
		if c := s.c; !c.Tunneled() {
			m.relays[k] = NeighborInfo{Addr: c.Peer, URIs: c.URIs, Load: int(c.peerLoad)}
			k++
		}
	}
	m.nrelays = k
}

// ctmPacket takes a packet and a message from the shard's lists for the
// connection protocol and returns them with the message in the packet, both
// blank but for the packet's source and the message's sender, relay
// candidates and URIs.
func (n *Node) ctmPacket(kind ctmKind) (*OverlayPacket, *ctmMsg) {
	pkt, m := n.pool.pkts.Get(), n.pool.ctms.Get()
	pkt.Src = n.addr
	m.Kind, m.From, m.URIs = kind, n.addr, n.URIs()
	n.relayCandidates(m)
	pkt.Payload = m
	return pkt, m
}

// ctmSize is the wire size of a packet carrying m.
func ctmSize(m *ctmMsg) int {
	return overlayHdrSize + ctmMsgSize + 16*len(m.URIs) + 24*m.nrelays
}

// sendCTM routes a Connect-To-Me request toward target (§IV-B1).
func (n *Node) sendCTM(target Addr, t ConnType, mode DeliveryMode, replyVia Addr) {
	n.tokenSeq++
	pkt, req := n.ctmPacket(kindRequest)
	req.Type, req.Token, req.ReplyVia = t, n.tokenSeq, replyVia
	pkt.Dst, pkt.Mode, pkt.Size = target, mode, ctmSize(req)
	n.Stats.Add(cCTMSent, 1)
	if replyVia != (Addr{}) && len(n.table.slots) > 0 {
		// Joining: hand the packet to the leaf target to route.
		if c, ok := n.lookup(replyVia); ok {
			pkt.Hops++
			n.sendConn(c, pkt.Size, pkt)
			return
		}
	}
	n.routePacket(pkt, n.addr)
}

// handleCTMRequest answers a CTM: reply with our URIs (routed back over
// the overlay, via the requester's leaf forwarder when asked) and
// simultaneously start linking toward the requester — the bidirectionality
// that makes NAT hole punching work (§IV-D). The request stays the
// caller's, which releases it when this returns; the reply is a packet and a
// message of its own from the same lists.
func (n *Node) handleCTMRequest(pkt *OverlayPacket, req *ctmMsg, exact bool) {
	if req.From == n.addr {
		return // own join CTM came back: ring too small to matter
	}
	n.Stats.Add(cCTMReceived, 1)
	if n.tun != nil {
		n.tun.learnCandidates(req)
	}
	rp, rep := n.ctmPacket(kindReply)
	rep.To, rep.Type, rep.Token = req.From, req.Type, req.Token
	rp.Dst, rp.Mode, rp.Size = req.From, DeliverExact, ctmSize(rep)
	if !req.ReplyVia.IsZero() {
		rep.Kind = kindForwardedReply
		rp.Dst = req.ReplyVia
		rp.Size += forwardHdrSize
	}
	n.routePacket(rp, n.addr)
	// Responder-side linking. A CTM from a peer we only hold a tunnel to
	// doubles as an upgrade probe: re-run direct linking with the fresh
	// URIs the CTM carries (both sides do, which is what punches holes).
	if c, ok := n.lookup(req.From); ok && c.Tunneled() {
		n.startUpgradeLinker(req.From, c.upgradeURIs(req.URIs), req.Type)
	} else {
		n.startLinker(req.From, req.URIs, req.Type)
	}

	// A join CTM (nearest-mode, addressed to the joiner itself) also
	// concerns the ring neighbor on the other side of the joining
	// address: pass one copy across so both future neighbors link
	// (§IV-C "form structured near connections with its left and right
	// neighbors").
	if !exact && req.Type == StructuredNear && pkt.Dst == req.From && pkt.Hops < maxHops {
		if other := n.neighborAcross(req.From); other != nil {
			// The copy is a packet and a message of their own, the request
			// copied in: the original is released when this handler
			// returns, long before the copy arrives. It starts untraced: the
			// original traced packet terminated here, and a copy re-emitting
			// under the same id would corrupt the hop chain.
			cp, cm := n.pool.pkts.Get(), n.pool.ctms.Get()
			cm.set(req)
			cp.Payload = cm
			cp.Src, cp.Dst, cp.Mode = pkt.Src, other.Peer, DeliverExact
			cp.Hops, cp.Size = pkt.Hops+1, pkt.Size
			n.sendConn(other, cp.Size, cp)
		}
	}
}

// neighborAcross returns the structured-near connection on the opposite
// side of address x from this node, i.e. the other future neighbor of a
// node joining at x.
func (n *Node) neighborAcross(x Addr) *Connection {
	// x is on our right when its clockwise distance is the shorter one;
	// its other neighbor is then our closest right neighbor.
	right := n.addr.Clockwise(x).Cmp(x.Clockwise(n.addr)) < 0
	return n.kthNearOnSide(right, 1)
}

// handleCTMReply starts initiator-side linking.
func (n *Node) handleCTMReply(rep *ctmMsg) {
	if rep.To != n.addr {
		return
	}
	n.Stats.Add(cCTMReplied, 1)
	if n.tun != nil {
		n.tun.learnCandidates(rep)
	}
	if c, ok := n.lookup(rep.From); ok && c.Tunneled() {
		n.startUpgradeLinker(rep.From, c.upgradeURIs(rep.URIs), rep.Type)
		return
	}
	n.startLinker(rep.From, rep.URIs, rep.Type)
}

// handleLeave processes a graceful departure with handoff: drop the
// departing peer's connection (the leaveMsg doubles as its close) and link
// toward the introduced neighbors we now want — typically our new ring
// neighbor across the hole the departure opens. Both sides of the hole
// receive the same introduction and both initiate, which is what lets the
// handoff traverse NATs (bidirectional linking, as with CTMs).
func (n *Node) handleLeave(m leaveMsg) {
	if c, ok := n.lookup(m.From); ok {
		n.dropConnection(c, false, dropPeerLeave)
	}
	n.Stats.Add(cHandoffReceived, 1)
	for _, info := range m.Neighbors {
		if info.Addr == n.addr || len(info.URIs) == 0 {
			continue
		}
		if _, ok := n.lookup(info.Addr); ok {
			continue
		}
		if n.near != nil && n.near.wanted(info.Addr) {
			n.Stats.Add(cHandoffLinked, 1)
			n.startLinker(info.Addr, info.URIs, StructuredNear)
		}
	}
}

// handleSuspect reacts to a forwarded death verdict: if we also hold a
// connection to the suspect, probe it immediately with a reduced retry
// budget. A live suspect answers the ping and nothing is torn down; a dead
// one is cleared in a couple of ping timeouts instead of every peer
// independently waiting out its full keepalive cycle.
func (n *Node) handleSuspect(m suspectMsg) {
	if m.Dead == n.addr {
		return
	}
	if c, ok := n.lookup(m.Dead); ok {
		n.fastProbe(c)
	}
	// A suspect that serves as a tunnel relay gets its tunnels
	// re-pointed pre-emptively: the overlord checks for alternatives now
	// instead of waiting for frames to silently vanish.
	if n.tun != nil {
		n.tun.relaySuspected(m.Dead)
	}
}

// linkFailed is the linker's terminal-failure hook: every URI toward
// target timed out or refused. The tunnel overlord consumes it to decide
// when a tunnel edge is warranted.
func (n *Node) linkFailed(target Addr, t ConnType) {
	if n.tun != nil {
		n.tun.linkFailed(target, t)
	}
}

// handleTunnelFrame processes one tunnel-edge frame: forward it when this
// node is the relay, unwrap and dispatch it when this node is the tunnel
// endpoint. Frames are only ever forwarded over direct connections — a
// relay whose own link to the destination is tunneled drops the frame, so
// tunnels never nest (no relay cycles, bounded path length of two hops).
// The relay forwards the frame it received; the endpoint is where a frame's
// life ends (see tunnelFrame).
func (n *Node) handleTunnelFrame(w wire, f *tunnelFrame) {
	f.Live(n.sim, "handleTunnelFrame")
	if f.To != n.addr {
		c, ok := n.lookup(f.To)
		if !ok || c.closed || c.Tunneled() {
			n.Stats.Add(cTunnelRelayNoRoute, 1)
			n.flightDrop(f.Inner, trace.OutcomeRelayNoRoute)
			// Bounce: tell the originator this relay has no direct route
			// to To, so it fails over now rather than at ping timeout.
			if oc, live := n.lookup(f.From); live && !oc.closed && !oc.Tunneled() {
				n.sendConn(oc, pingMsgSize, tunnelNoRoute{Relay: n.addr, To: f.To})
			}
			return
		}
		// The frame is traffic from the originator on our direct link.
		if rc, rok := n.lookup(f.From); rok {
			n.touch(rc)
		}
		// Stamp the originator's wire endpoint: the tunnel endpoints
		// never see each other's addresses, and NATed originators rely
		// on this observation to keep their learned URIs fresh for the
		// direct-link upgrade path.
		f.Observed = URIEndpoint{URI: URI{Transport: w.transport(), EP: w.observed()}}
		n.Stats.Add(cTunnelRelayed, 1)
		n.noteRelayed(f.From, f.To)
		n.sendConn(c, tunnelHdrSize+f.Size, f)
		return
	}
	// Tunnel endpoint: a frame through Via proves that relay works in
	// the peer->us direction; adopt it so our own sends can fail over.
	if c, ok := n.lookup(f.From); ok && c.Tunneled() {
		if !f.Via.IsZero() && len(c.Relays) < tunnelMaxRelays {
			if rc, rok := n.lookup(f.Via); rok && !rc.Tunneled() && c.addRelay(f.Via) {
				n.Stats.Add(cTunnelRelayLearned, 1)
			}
		}
		// The relay stamped the peer's current wire endpoint on the
		// frame. Record it: if the peer's NAT later relaxes or re-binds,
		// this — not the peer's stale advertised list — is the endpoint
		// an upgrade attempt can actually reach.
		c.noteObserved(f.Observed.URI)
	}
	// The wire copies what it needs out of the frame, and the frame stays
	// ours until Inner's handler returns: whatever that handler sends through
	// a tunnel takes another frame.
	n.handleWire(wire{tpeer: f.From, tvia: f.Via, tobs: f.Observed.URI}, f.Inner)
	if !n.pool.frames.Put(f, "handleTunnelFrame") {
		// A stream has carried the frame and may still point at it: cut it
		// loose from the message it carried, which may live on.
		*f = tunnelFrame{}
	}
}

// handleForwarded relays a CTM reply to a leaf child (§IV-C: "the leaf
// target acts as forwarding agent for the new node"): the message is copied
// into a packet and a message of this node's own, addressed to the child, and
// the ones it came in are released by the caller.
func (n *Node) handleForwarded(pkt *OverlayPacket, rep *ctmMsg) {
	c, ok := n.lookup(rep.To)
	if !ok {
		n.Stats.Add(cForwardNoChild, 1)
		return
	}
	fp, fm := n.pool.pkts.Get(), n.pool.ctms.Get()
	fm.set(rep)
	fm.Kind = kindReply
	fp.Payload = fm
	fp.Src, fp.Dst, fp.Mode = n.addr, rep.To, DeliverExact
	fp.Size = pkt.Size - forwardHdrSize
	n.sendConn(c, fp.Size, fp)
}

// String renders a diagnostic summary.
func (n *Node) String() string {
	return fmt.Sprintf("brunet.Node{%s conns=%d up=%v}", n.addr, len(n.table.slots), n.up)
}
