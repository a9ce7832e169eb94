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
	// nears is the near neighborhood as last gossiped, and status the one
	// message built from it that every neighbor is sent until it changes.
	nears  advert
	status *statusMsg
	ticker sim.Ticker
}

// nearTickFired, farTickFired and shortcutTickFired are the overlords' ticker
// callbacks: package-level, taking the overlord, so a tick allocates nothing
// (see sim.StartTicker).
func nearTickFired(o any) { o.(*nearOverlord).maintain() }

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
		i := n.rand().Intn(len(n.bootstrap))
		n.startLinker(Zero, n.bootstrap[i:i+1:i+1], Leaf)
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
	o.nears.begin(nears)
	for _, s := range n.table.slots {
		if c := s.c; c.Has(StructuredNear) {
			o.nears.add(NeighborInfo{Addr: c.Peer, URIs: c.URIs})
		}
	}
	// One message for every neighbor, rebuilt only when the list changes:
	// receivers only read it, and one still in flight keeps its own list.
	if infos, changed := o.nears.publish(); changed {
		o.status = &statusMsg{From: n.addr, Neighbors: infos}
	}
	msg := o.status
	size := statusMsgSize + 24*len(msg.Neighbors)
	for _, s := range n.table.slots {
		if s.c.Has(StructuredNear) {
			n.sendConn(s.c, size, msg)
		}
	}
	n.Stats.Add(cStatusSent, int64(nears))
}

// handleStatus connects toward advertised neighbors that are closer than
// what we currently hold — the ring-repair path that makes the overlay
// converge after joins, leaves and migrations.
func (o *nearOverlord) handleStatus(m *statusMsg) {
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
			n.Stats.Add(cStatusDiscovered, 1)
			n.sendCTM(info.Addr, StructuredNear, DeliverExact, o.leafPeer)
		}
	}
}

// nearPerSide is how many structured-near neighbors a node keeps on each
// ring side.
const nearPerSide = 2

// wanted reports whether a new near connection to w would belong to the
// kept set (within nearPerSide nearest on its ring side).
func (o *nearOverlord) wanted(w Addr) bool {
	n := o.node
	right := n.addr.onRight(&w)
	kth := n.kthNearOnSide(right, nearPerSide)
	return kth == nil || n.addr.inside(&w, &kth.Peer, right)
}

// trim drops the StructuredNear role from connections no longer among the
// k nearest per side, closing connections left without any role. The kept
// set is whatever lies within the k-th neighbor clockwise or the k-th
// counter-clockwise, both fixed before the first drop.
func (o *nearOverlord) trim() {
	n := o.node
	k := nearPerSide
	if n.roleCount[StructuredNear] <= 2*k {
		return // the two k-long side walks cover every near connection
	}
	kr, kl := n.kthNearOnSide(true, k), n.kthNearOnSide(false, k)
	near := maskOf(StructuredNear)
	for c := n.firstConn(near); c != nil; c = n.connAfter(c, near) {
		if n.addr.CmpClockwise(c.Peer, kr.Peer) <= 0 || n.addr.CmpClockwise(c.Peer, kl.Peer) >= 0 {
			continue
		}
		n.Stats.Add(cNearTrimmed, 1)
		n.dropConnRole(c, StructuredNear, dropTrim)
	}
}

// farOverlord maintains k structured-far connections to distant ring
// addresses drawn from the small-world distribution of the paper's
// reference [37], giving O((1/k)·log²n) greedy routing.
type farOverlord struct {
	node   *Node
	ticker sim.Ticker
}

func farTickFired(o any) { o.(*farOverlord).maintain() }

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
// connection, and shortcuts whose score has drained to zero for
// shortcutIdleDrop are torn down, bounding keepalive overhead.
type shortcutOverlord struct {
	node *Node
	cfg  ShortcutConfig

	// scored holds one entry per peer with traffic on record, ascending by
	// address: the order tick must walk in, since it sends CTMs and drops
	// idle shortcuts and the event sequence has to repeat between runs.
	scored []scoredPeer
	// last is the index observe used last. A transfer observes one peer
	// for a long run of packets, so observe compares that entry's address
	// before it searches; a stale index is only a failed compare.
	last int

	ticker sim.Ticker
}

// scoredPeer is the shortcut overlord's record of one peer.
type scoredPeer struct {
	peer      Addr
	arrivals  float64  // packets observed since the last tick
	score     float64  // s_i as of the last tick
	zeroSince sim.Time // when the score last drained to zero, if idle
	lastTry   sim.Time // when the last shortcut CTM went out, if tried
	idle      bool
	tried     bool
}

// The shortcut overlord's constants (§IV-E); with them the default
// threshold is crossed after roughly 20 seconds of 1 packet/s traffic.
const (
	// shortcutServiceRate is c in s_{i+1} = max(s_i + a_i − c, 0), in
	// packets/second drained from the virtual work queue.
	shortcutServiceRate = 0.25
	// shortcutTick is the score-update period (the paper's unit of time).
	shortcutTick = sim.Second
	// shortcutIdleDrop closes a shortcut whose score has stayed at zero
	// this long, bounding per-node connection count.
	shortcutIdleDrop = 120 * sim.Second
	// shortcutRetry is the cool-down before re-attempting a failed
	// shortcut.
	shortcutRetry = 30 * sim.Second
)

func newShortcutOverlord(n *Node, cfg ShortcutConfig) *shortcutOverlord {
	return &shortcutOverlord{node: n, cfg: cfg}
}

func shortcutTickFired(o any) { o.(*shortcutOverlord).tick() }

// find returns the index at which peer is, or would be inserted, in scored
// (a search written out: the entries are compared in place, word by word).
func (o *shortcutOverlord) find(peer *Addr) (int, bool) {
	ph, pm, pl := words(peer)
	lo, hi := 0, len(o.scored)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		eh, em, el := words(&o.scored[mid].peer)
		if cmpWords(eh, em, el, ph, pm, pl) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(o.scored) && o.scored[lo].peer == *peer
}

// observe records tunnelled traffic to or from peer; called by the node on
// every originated and delivered application packet (traffic inspection).
func (o *shortcutOverlord) observe(peer Addr, pkts float64) {
	if i := o.last; i < len(o.scored) && o.scored[i].peer == peer {
		o.scored[i].arrivals += pkts
		return
	}
	if peer == o.node.addr {
		return
	}
	i, ok := o.find(&peer)
	if !ok {
		o.scored = slices.Insert(o.scored, i, scoredPeer{peer: peer})
	}
	o.scored[i].arrivals += pkts
	o.last = i
}

// score is the current score for a peer (diagnostics and tests).
func (o *shortcutOverlord) score(peer Addr) float64 {
	if i, ok := o.find(&peer); ok {
		return o.scored[i].score
	}
	return 0
}

// tick applies the recurrence to every scored peer in address order. A
// router that carries no tunnelled traffic has nothing scored and returns
// at once. Nothing tick calls observes traffic — sendCTM and dropConnRole
// neither originate nor deliver application data — so scored is not
// resized under the walk; peers done with are compacted out behind it.
func (o *shortcutOverlord) tick() {
	n := o.node
	if !n.up {
		return
	}
	now := n.sim.Now()
	drain := shortcutServiceRate * shortcutTick.Seconds()
	kept := 0
	for i := range o.scored {
		e := &o.scored[i]
		s := e.score + e.arrivals - drain
		if s <= 0 {
			s = 0
		}
		e.score, e.arrivals = s, 0
		c, _ := n.lookup(e.peer)

		if s >= o.cfg.Threshold && !(c != nil && c.structured()) { // no single-hop path yet
			if !e.tried || now.Sub(e.lastTry) >= shortcutRetry {
				e.lastTry, e.tried = now, true
				n.Stats.Add(cShortcutCTM, 1)
				n.sendCTM(e.peer, Shortcut, DeliverExact, Zero)
			}
		}

		if s == 0 {
			if !e.idle {
				e.zeroSince, e.idle = now, true
			}
			if now.Sub(e.zeroSince) >= shortcutIdleDrop {
				if c != nil && c.Has(Shortcut) {
					n.Stats.Add(cShortcutIdleDropped, 1)
					n.dropConnRole(c, Shortcut, dropIdle)
				}
				if c == nil || !c.Has(Shortcut) {
					continue // idled out with no shortcut left to watch: forget the peer
				}
			}
		} else {
			e.idle = false
		}
		o.scored[kept] = *e
		kept++
	}
	o.scored = o.scored[:kept]
}
