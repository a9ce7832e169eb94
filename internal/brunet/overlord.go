package brunet

import (
	"slices"

	"wow/internal/sim"
)

// nearOverlord maintains structured-near connections: it drives the join
// procedure of §IV-C (leaf connection, CTM-to-self, link with ring
// neighbors), gossips ring neighborhoods over status messages, connects to
// closer neighbors as they appear, and trims links that are no longer
// among the nearest per side.
type nearOverlord struct {
	node     *Node
	leafPeer Addr
	joinSent bool
}

func newNearOverlord(n *Node) *nearOverlord { return &nearOverlord{node: n} }

func (o *nearOverlord) start() {
	n := o.node
	n.OnConnection(o.onConnection)
	n.OnDisconnection(o.onDisconnection)
	o.maintain()
	t := n.tick(n.cfg.StatusInterval, n.cfg.StatusInterval/5, o.maintain)
	n.tickers = append(n.tickers, t)
}

// maintain is the periodic overlord pass: bootstrap if necessary, retry
// the join, gossip status, trim the neighbor set.
func (o *nearOverlord) maintain() {
	n := o.node
	if !n.up {
		return
	}
	if len(n.bootstrap) == 0 {
		return // ring founder: neighbors come to us
	}
	if o.leafConn() == nil {
		o.joinSent = false
		// Try a bootstrap URI; rotate through the list across
		// attempts via the RNG so a dead bootstrap node doesn't
		// wedge the join.
		uri := n.bootstrap[n.rand().Intn(len(n.bootstrap))]
		n.startLinker(Zero, []URI{uri}, Leaf)
		return
	}
	nears := n.roleCount[StructuredNear]
	if nears < 2 {
		// Leaf is up but our ring position is absent or one-sided:
		// route a CTM to our own address through the leaf target
		// (§IV-C). Re-sent every maintenance pass until both-side
		// neighbors link up. Replies come back through the forwarder,
		// which works even when nothing can route to us yet.
		n.sendCTM(n.addr, StructuredNear, DeliverNearest, o.leafPeer)
		o.joinSent = true
	}
	if nears == 0 {
		return
	}
	o.gossip()
	o.trim()
}

// leafConn returns the live leaf connection to the bootstrap peer, or nil.
func (o *nearOverlord) leafConn() *Connection {
	if c, ok := o.node.lookup(o.leafPeer); ok && c.Has(Leaf) {
		return c
	}
	return nil
}

func (o *nearOverlord) onConnection(c *Connection) {
	n := o.node
	if n.near != o {
		return // stale callback from before a restart
	}
	if c.Has(Leaf) && o.leafPeer.IsZero() {
		o.leafPeer = c.Peer
		// Don't wait for the next maintenance tick: join now.
		if !o.joinSent && n.roleCount[StructuredNear] == 0 {
			n.sendCTM(n.addr, StructuredNear, DeliverNearest, o.leafPeer)
			o.joinSent = true
		}
	}
}

func (o *nearOverlord) onDisconnection(c *Connection) {
	if o.node.near != o {
		return // stale callback from before a restart
	}
	if c.Peer == o.leafPeer {
		o.leafPeer = Zero
	}
	// Losing a near neighbor (crash, migration) re-triggers repair on
	// the next maintenance pass via gossip and join retries.
}

// gossip advertises our near neighborhood over every near connection.
func (o *nearOverlord) gossip() {
	n := o.node
	nears := n.roleCount[StructuredNear]
	if nears == 0 {
		return
	}
	infos := make([]NeighborInfo, 0, nears)
	for _, s := range n.table.slots {
		if c := s.c; c.Has(StructuredNear) {
			infos = append(infos, NeighborInfo{Addr: c.Peer, URIs: c.URIs})
		}
	}
	// One message for every neighbor, boxed once: receivers only read it.
	var msg any = statusMsg{From: n.addr, Neighbors: infos}
	size := statusMsgSize + 24*len(infos)
	for _, s := range n.table.slots {
		if s.c.Has(StructuredNear) {
			n.sendConn(s.c, size, msg)
		}
	}
	n.Stats.Inc("status.sent", int64(nears))
}

// handleStatus connects toward advertised neighbors that are closer than
// what we currently hold — the ring-repair path that makes the overlay
// converge after joins, leaves and migrations.
func (o *nearOverlord) handleStatus(m statusMsg) {
	n := o.node
	for _, info := range m.Neighbors {
		if info.Addr == n.addr {
			continue
		}
		if _, ok := n.lookup(info.Addr); ok {
			continue
		}
		if o.wanted(info.Addr) {
			// Ask for the reply via our leaf forwarder: while our
			// ring position is still converging, replies routed to
			// our bare address can dead-letter — and nodes whose
			// middleboxes defeat inbound linking (TCP-only sites)
			// depend entirely on the reply arriving so they can
			// dial outward.
			n.Stats.Inc("status.discovered", 1)
			n.sendCTM(info.Addr, StructuredNear, DeliverExact, o.leafPeer)
		}
	}
}

// wanted reports whether a new near connection to w would belong to the
// kept set (within NearPerSide nearest on its ring side).
func (o *nearOverlord) wanted(w Addr) bool {
	n := o.node
	k := n.cfg.NearPerSide
	right := n.addr.Clockwise(w).Cmp(w.Clockwise(n.addr)) < 0
	kth := n.kthNearOnSide(right, k)
	if kth == nil {
		return true
	}
	if right {
		return n.addr.Clockwise(w).Cmp(n.addr.Clockwise(kth.Peer)) < 0
	}
	return w.Clockwise(n.addr).Cmp(kth.Peer.Clockwise(n.addr)) < 0
}

// trim drops the StructuredNear role from connections no longer among the
// k nearest per side, closing connections left without any role. The kept
// set is whatever lies within the k-th neighbor clockwise or the k-th
// counter-clockwise, both fixed before the first drop.
func (o *nearOverlord) trim() {
	n := o.node
	k := n.cfg.NearPerSide
	if n.roleCount[StructuredNear] <= 2*k {
		return // the two k-long side walks cover every near connection
	}
	kr, kl := n.kthNearOnSide(true, k), n.kthNearOnSide(false, k)
	near := maskOf(StructuredNear)
	for c := n.firstConn(near); c != nil; c = n.connAfter(c, near) {
		if n.addr.CmpClockwise(c.Peer, kr.Peer) <= 0 || n.addr.CmpClockwise(c.Peer, kl.Peer) >= 0 {
			continue
		}
		n.Stats.Inc("near.trimmed", 1)
		n.dropConnRole(c, StructuredNear, "trim")
	}
}

// farOverlord maintains k structured-far connections to distant ring
// addresses drawn from the small-world distribution of the paper's
// reference [37], giving O((1/k)·log²n) greedy routing.
type farOverlord struct {
	node *Node
}

func newFarOverlord(n *Node) *farOverlord { return &farOverlord{node: n} }

func (o *farOverlord) start() {
	n := o.node
	t := n.tick(n.cfg.FarInterval, n.cfg.FarInterval/5, o.maintain)
	n.tickers = append(n.tickers, t)
}

func (o *farOverlord) maintain() {
	n := o.node
	if !n.up || !n.IsRoutable() {
		return
	}
	for i := n.roleCount[StructuredFar]; i < n.cfg.FarCount; i++ {
		// The paper leaves the random-address logic out of scope
		// (footnote 1); we use the harmonic (Kleinberg) offset its
		// reference [37] analyses.
		target := n.addr.Offset(KleinbergOffset(n.rand()))
		n.sendCTM(target, StructuredFar, DeliverNearest, Zero)
	}
}

// shortcutOverlord implements §IV-E: per-destination traffic scores follow
// the queueing recurrence s_{i+1} = max(s_i + a_i − c, 0); when a score
// crosses the threshold the overlord issues a CTM for a direct shortcut
// connection, and shortcuts whose score has drained to zero for IdleDrop
// are torn down, bounding keepalive overhead.
type shortcutOverlord struct {
	node *Node
	cfg  ShortcutConfig

	arrivals  map[Addr]float64
	score     map[Addr]float64
	zeroSince map[Addr]sim.Time
	lastTry   map[Addr]sim.Time

	peers []Addr // tick's scratch: the scored peers in address order
}

func newShortcutOverlord(n *Node, cfg ShortcutConfig) *shortcutOverlord {
	return &shortcutOverlord{
		node:      n,
		cfg:       cfg,
		arrivals:  make(map[Addr]float64),
		score:     make(map[Addr]float64),
		zeroSince: make(map[Addr]sim.Time),
		lastTry:   make(map[Addr]sim.Time),
	}
}

func (o *shortcutOverlord) start() {
	n := o.node
	t := n.tick(o.cfg.Tick, o.cfg.Tick/10, o.tick)
	n.tickers = append(n.tickers, t)
}

// observe records tunnelled traffic to or from peer; called by the node on
// every originated and delivered application packet (traffic inspection).
func (o *shortcutOverlord) observe(peer Addr, pkts float64) {
	if peer == o.node.addr {
		return
	}
	o.arrivals[peer] += pkts
}

// Score exposes the current score for a peer (diagnostics and tests).
func (o *shortcutOverlord) Score(peer Addr) float64 { return o.score[peer] }

func (o *shortcutOverlord) tick() {
	n := o.node
	if !n.up {
		return
	}
	if len(o.arrivals) == 0 && len(o.score) == 0 {
		return // a router that carries no tunnelled traffic: nothing to score
	}
	now := n.sim.Now()
	drain := o.cfg.ServiceRate * o.cfg.Tick.Seconds()
	for peer, a := range o.arrivals {
		o.score[peer] += a
		delete(o.arrivals, peer)
	}
	// Walk scores in address order: the loop sends CTMs and drops idle
	// shortcuts, so map-order iteration would perturb the deterministic
	// event sequence between runs.
	peers := o.peers[:0]
	for peer := range o.score {
		peers = append(peers, peer)
	}
	slices.SortFunc(peers, Addr.Cmp)
	o.peers = peers
	for _, peer := range peers {
		s := o.score[peer]
		s -= drain
		if s <= 0 {
			s = 0
		}
		o.score[peer] = s
		c, _ := n.lookup(peer)

		if s >= o.cfg.Threshold && !o.direct(peer) {
			last, tried := o.lastTry[peer]
			if !tried || now.Sub(last) >= o.cfg.Retry {
				o.lastTry[peer] = now
				n.Stats.Inc("shortcut.ctm", 1)
				n.sendCTM(peer, Shortcut, DeliverExact, Zero)
			}
		}

		if s == 0 {
			if _, ok := o.zeroSince[peer]; !ok {
				o.zeroSince[peer] = now
			}
			if c != nil && c.Has(Shortcut) && now.Sub(o.zeroSince[peer]) >= o.cfg.IdleDrop {
				n.Stats.Inc("shortcut.idle_dropped", 1)
				n.dropConnRole(c, Shortcut, "idle")
			}
			if c == nil || !c.Has(Shortcut) {
				if now.Sub(o.zeroSince[peer]) >= o.cfg.IdleDrop {
					delete(o.score, peer)
					delete(o.zeroSince, peer)
					delete(o.lastTry, peer)
				}
			}
		} else {
			delete(o.zeroSince, peer)
		}
	}
}

// direct reports whether a single-hop path to peer already exists.
func (o *shortcutOverlord) direct(peer Addr) bool {
	c, ok := o.node.lookup(peer)
	return ok && c.structured()
}
