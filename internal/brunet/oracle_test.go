package brunet

import "sort"

// The oracles: the original copy-and-sort and linear-scan selections the
// connection table's indexes replaced, kept as the references the property
// tests hold the indexes to. They share nothing with what they check: the
// set comes from a shadow map the test keeps through the node's own
// connection callbacks — independent of both indexes and of their keys —
// and every comparison is the byte-wise reference arithmetic of
// addr_oracle_test.go.

// shadow is a node's live connections by peer, as its OnConnection and
// OnDisconnection callbacks report them.
type shadow map[Addr]*Connection

// watch starts shadowing n. Node.Stop tears connections down without
// callbacks, so a test that stops the node clears the shadow itself.
func watch(n *Node) shadow {
	sh := shadow{}
	n.OnConnection(func(c *Connection) { sh[c.Peer] = c })
	n.OnDisconnection(func(c *Connection) { delete(sh, c.Peer) })
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
