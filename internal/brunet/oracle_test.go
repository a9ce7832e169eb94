package brunet

import "sort"

// The oracles: the original copy-and-sort and linear-scan selections the
// connection table's indexes replaced, kept as the references the property
// tests hold the indexes to. Each reads only the conns map.

// connectionsSorted is the old Connections(): copy the map, sort by peer.
func (n *Node) connectionsSorted() []*Connection {
	out := make([]*Connection, 0, len(n.conns))
	for _, c := range n.conns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer.Less(out[j].Peer) })
	return out
}

// connsOfTypeSorted is the old per-role view: filter the map, sort by peer.
func (n *Node) connsOfTypeSorted(t ConnType) []*Connection {
	var out []*Connection
	for _, c := range n.conns {
		if c.Has(t) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer.Less(out[j].Peer) })
	return out
}

// nearestConnLinear is the original linear-scan routing selection: minimal
// ring distance, ties to the smaller peer address, leaf connections on
// exact match only.
func (n *Node) nearestConnLinear(dst Addr, exclude Addr) *Connection {
	var best *Connection
	var bestDist Addr
	for _, c := range n.conns {
		if c.Peer == exclude {
			continue
		}
		if !c.structured() {
			if c.Peer == dst && c.Has(Leaf) {
				return c
			}
			continue
		}
		d := c.Peer.RingDist(dst)
		if best == nil || d.Cmp(bestDist) < 0 || (d.Cmp(bestDist) == 0 && c.Peer.Less(best.Peer)) {
			best, bestDist = c, d
		}
	}
	return best
}

// neighborsOnSideLinear is the original sort-per-call side selection:
// structured-near peers by clockwise (right) or counter-clockwise distance
// from this node.
func (n *Node) neighborsOnSideLinear(right bool) []*Connection {
	conns := n.connsOfTypeSorted(StructuredNear)
	sort.Slice(conns, func(i, j int) bool {
		var di, dj Addr
		if right {
			di, dj = n.addr.Clockwise(conns[i].Peer), n.addr.Clockwise(conns[j].Peer)
		} else {
			di, dj = conns[i].Peer.Clockwise(n.addr), conns[j].Peer.Clockwise(n.addr)
		}
		return di.Cmp(dj) < 0
	})
	return conns
}
