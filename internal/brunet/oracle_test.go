package brunet

import (
	"sort"

	"wow/internal/sim"
)

// The oracles: the original copy-and-sort and linear-scan selections the
// connection table replaced, kept as the references the property tests hold
// the table to. They share nothing with what they check: the set comes from
// a shadow map the test keeps through the node's own connection callbacks —
// independent of the table and of its keys — and every comparison is the
// byte-wise reference arithmetic of addr_oracle_test.go.

// shadow is a node's live connections by peer, as its onConnection and
// onDisconnection callbacks report them.
type shadow map[Addr]*Connection

// watch starts shadowing n. Node.Stop tears connections down without
// callbacks, so a test that stops the node clears the shadow itself.
func watch(n *Node) shadow {
	sh := shadow{}
	n.onConnection(func(c *Connection) { sh[c.Peer] = c })
	n.onDisconnection(func(c *Connection) { delete(sh, c.Peer) })
	return sh
}

// sorted is the old Connections(): copy the map, sort by peer.
func (sh shadow) sorted() []*Connection {
	out := make([]*Connection, 0, len(sh))
	for _, c := range sh {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return refCmp(out[i].Peer, out[j].Peer) < 0 })
	return out
}

// ofTypeSorted is the old per-role view: filter the map, sort by peer.
func (sh shadow) ofTypeSorted(t ConnType) []*Connection {
	var out []*Connection
	for _, c := range sh.sorted() {
		if c.Has(t) {
			out = append(out, c)
		}
	}
	return out
}

// nearestLinear is the original linear-scan routing selection: minimal
// ring distance, ties to the smaller peer address, leaf connections on
// exact match only.
func (sh shadow) nearestLinear(dst Addr, exclude Addr) *Connection {
	var best *Connection
	var bestDist Addr
	for _, c := range sh {
		if c.Peer == exclude {
			continue
		}
		if !c.structured() {
			if c.Peer == dst && c.Has(Leaf) {
				return c
			}
			continue
		}
		d := refRingDist(c.Peer, dst)
		if best == nil || refCmp(d, bestDist) < 0 || (refCmp(d, bestDist) == 0 && refCmp(c.Peer, best.Peer) < 0) {
			best, bestDist = c, d
		}
	}
	return best
}

// neighborsOnSideLinear is the original sort-per-call side selection:
// structured-near peers by clockwise (right) or counter-clockwise distance
// from origin.
func (sh shadow) neighborsOnSideLinear(origin Addr, right bool) []*Connection {
	conns := sh.ofTypeSorted(StructuredNear)
	sort.Slice(conns, func(i, j int) bool {
		if right {
			return refCmp(refSub(conns[i].Peer, origin), refSub(conns[j].Peer, origin)) < 0
		}
		return refCmp(refSub(origin, conns[i].Peer), refSub(origin, conns[j].Peer)) < 0
	})
	return conns
}

// refShortcut is the shortcut overlord as it was on four maps — arrivals,
// scores, idle-since and last-try times by peer, the scored peers collected
// and sorted on every tick — kept line for line as the reference the
// slice-backed overlord is held to. It acts on its own node exactly as the
// overlord does, and logs the targets of the CTMs it sends.
type refShortcut struct {
	node *Node
	cfg  ShortcutConfig

	arrivals  map[Addr]float64
	score     map[Addr]float64
	zeroSince map[Addr]sim.Time
	lastTry   map[Addr]sim.Time

	ctms []Addr
}

func newRefShortcut(n *Node, cfg ShortcutConfig) *refShortcut {
	return &refShortcut{
		node:      n,
		cfg:       cfg,
		arrivals:  make(map[Addr]float64),
		score:     make(map[Addr]float64),
		zeroSince: make(map[Addr]sim.Time),
		lastTry:   make(map[Addr]sim.Time),
	}
}

func (o *refShortcut) observe(peer Addr, pkts float64) {
	if peer == o.node.addr {
		return
	}
	o.arrivals[peer] += pkts
}

func (o *refShortcut) Score(peer Addr) float64 { return o.score[peer] }

func (o *refShortcut) tick() {
	n := o.node
	if !n.up {
		return
	}
	if len(o.arrivals) == 0 && len(o.score) == 0 {
		return
	}
	now := n.sim.Now()
	drain := shortcutServiceRate * shortcutTick.Seconds()
	for peer, a := range o.arrivals {
		o.score[peer] += a
		delete(o.arrivals, peer)
	}
	var peers []Addr
	for peer := range o.score {
		peers = append(peers, peer)
	}
	sort.Slice(peers, func(i, j int) bool { return refCmp(peers[i], peers[j]) < 0 })
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
			if !tried || now.Sub(last) >= shortcutRetry {
				o.lastTry[peer] = now
				n.Stats.Inc("shortcut.ctm", 1)
				o.ctms = append(o.ctms, peer)
				n.sendCTM(peer, Shortcut, DeliverExact, Zero)
			}
		}

		if s == 0 {
			if _, ok := o.zeroSince[peer]; !ok {
				o.zeroSince[peer] = now
			}
			if c != nil && c.Has(Shortcut) && now.Sub(o.zeroSince[peer]) >= shortcutIdleDrop {
				n.Stats.Inc("shortcut.idle_dropped", 1)
				n.dropConnRole(c, Shortcut, dropIdle)
			}
			if c == nil || !c.Has(Shortcut) {
				if now.Sub(o.zeroSince[peer]) >= shortcutIdleDrop {
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

func (o *refShortcut) direct(peer Addr) bool {
	c, ok := o.node.lookup(peer)
	return ok && c.structured()
}

// refTunnel is a tunnel edge's bookkeeping as Connection kept it before the
// tunnelState: a sorted relay slice grown by append and sort.Slice, and a
// freshly prepended observation slice. TestQuickTunnelBookkeepingMatchesOracle
// holds Connection to it.
type refTunnel struct {
	relays   []Addr
	observed []URI
}

func (c *refTunnel) hasRelay(r Addr) bool {
	for _, a := range c.relays {
		if a == r {
			return true
		}
	}
	return false
}

func (c *refTunnel) addRelay(r Addr) bool {
	if c.hasRelay(r) {
		return false
	}
	c.relays = append(c.relays, r)
	sort.Slice(c.relays, func(i, j int) bool { return c.relays[i].Less(c.relays[j]) })
	return true
}

func (c *refTunnel) removeRelay(r Addr) bool {
	for i, a := range c.relays {
		if a == r {
			c.relays = append(c.relays[:i], c.relays[i+1:]...)
			return true
		}
	}
	return false
}

func (c *refTunnel) noteObserved(u URI) {
	if u.IsZero() || u.Transport == "tcp" {
		return
	}
	if len(c.observed) > 0 && c.observed[0] == u {
		return
	}
	for i, o := range c.observed {
		if o == u {
			c.observed = append(c.observed[:i], c.observed[i+1:]...)
			break
		}
	}
	c.observed = append([]URI{u}, c.observed...)
	if len(c.observed) > maxObservedURIs {
		c.observed = c.observed[:maxObservedURIs]
	}
}

func (c *refTunnel) upgradeURIs(advertised []URI) []URI {
	if len(c.observed) == 0 {
		return advertised
	}
	out := make([]URI, 0, len(c.observed)+len(advertised))
	seen := make(map[URI]bool, len(c.observed)+len(advertised))
	for _, u := range c.observed {
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	for _, u := range advertised {
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// dropTunnel is the in-place upgrade's reset.
func (c *refTunnel) dropTunnel() { c.relays, c.observed = nil, nil }
