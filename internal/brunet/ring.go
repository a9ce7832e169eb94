package brunet

// The ring is read off the connection table in place, without sorting or
// building a slice: its routers are the table slots whose connection carries
// a ring-routing role, and clockwise order from any point is the table's
// address order rotated to start there.

// nearestConn returns the structured connection whose peer is closest to
// dst by ring distance, excluding a peer address (no-backtrack), with ties
// broken toward the smaller peer address. Leaf connections participate only
// on exact address match, since leaf children are not ring routers. (The
// brute-force oracle it must agree with lives in oracle_test.go.)
//
// One search of the table finds dst's position. The slot there answers an
// exact match: a structured connection at dst has ring distance zero and
// would win anyway, a leaf one wins only so. Otherwise the minimizer over
// the routers is one of dst's two circular neighbors among them: the first
// router at or after the position, and the first before it.
//
// The two are ranked on their keys where the keys can tell. The difference
// of two address keys, in 64-bit ring arithmetic, is the top word of the
// difference of the addresses computed without the borrow out of the low 96
// bits, so min(k−kd, kd−k) is never more than one away from the top word of
// the true 160-bit ring distance. Two prefix distances that differ by three
// or more therefore order the true distances the same way, and only a
// closer call pays for CmpRingDist on the full addresses. The excluded peer
// is likewise matched on its key before its address.
func (n *Node) nearestConn(dst, exclude Addr) *Connection {
	x := &n.table
	i, kd := x.search(&dst)
	if i < len(x.slots) {
		if s := x.slots[i]; s.key == kd && s.c.Peer.is(&dst) && !dst.is(&exclude) && s.c.roles&(structuredRoles|maskOf(Leaf)) != 0 {
			return s.c
		}
	}
	ke := addrKey(&exclude)
	succ, ok := x.router(i, 1, &exclude, ke)
	if !ok {
		return nil
	}
	pred, _ := x.router(i-1, -1, &exclude, ke)
	ds, dp := min(succ.key-kd, kd-succ.key), min(pred.key-kd, kd-pred.key)
	switch {
	case ds+3 <= dp:
		return succ.c
	case dp+3 <= ds:
		return pred.c
	}
	if cmp := dst.CmpRingDist(pred.c.Peer, succ.c.Peer); cmp < 0 || (cmp == 0 && pred.c.Peer.Less(succ.c.Peer)) {
		return pred.c
	}
	return succ.c
}

// router walks from position i (−1 ≤ i ≤ len) by step, +1 or −1, wrapping
// around the ring, to the first slot whose connection carries a ring-routing
// role and is not the excluded peer, whose key is ke. ok is false when no
// slot qualifies.
func (x *connIndex) router(i, step int, exclude *Addr, ke uint64) (s slot, ok bool) {
	m := len(x.slots)
	for range m {
		if i == m {
			i = 0
		} else if i < 0 {
			i = m - 1
		}
		s = x.slots[i]
		if s.c.roles&structuredRoles != 0 && (s.key != ke || s.c.Peer != *exclude) {
			return s, true
		}
		i += step
	}
	return slot{}, false
}

// kthNearOnSide returns the k-th nearest (k counts from 1) structured-near
// connection on the given ring side — clockwise for right, counter-clockwise
// otherwise — or nil when the side holds fewer than k. Clockwise order from
// the node is the table's address order starting at the node's own
// position, wrapping past the top of the address space; counter-clockwise
// order is the same walk backwards from the slot before it. Both walks
// cover every near connection (a "side" is a direction, not a half), so a
// non-nil k-th exists on one side exactly when it does on the other.
func (n *Node) kthNearOnSide(right bool, k int) *Connection {
	s := n.table.slots
	m := len(s)
	i, _ := n.table.search(&n.addr)
	for j := range m {
		var c *Connection
		if right {
			c = s[(i+j)%m].c
		} else {
			c = s[(i-1-j+m)%m].c
		}
		if c.Has(StructuredNear) {
			if k--; k == 0 {
				return c
			}
		}
	}
	return nil
}

// routers counts the ring routers: the flight recorder's candidate-set
// size, paid only by sampled packets.
func (n *Node) routers() int {
	count := 0
	for _, s := range n.table.slots {
		if s.c.structured() {
			count++
		}
	}
	return count
}
