package brunet

// The ring index (Node.ring, a connIndex anchored at the node's own
// address) is maintained incrementally on every connection add and role
// drop, so the routing hot path finds the connection nearest to a
// destination with one binary search plus a constant-size neighbor probe
// instead of a linear scan, and the near overlord reads the k-th neighbor
// of a ring side off it without sorting or building a slice.

// ringInsert puts c into the ring index if it carries a ring-routing role
// and is not in it yet.
func (n *Node) ringInsert(c *Connection) {
	if c.structured() && !c.inRing {
		n.ring.insert(c)
		c.inRing = true
	}
}

// ringRemove takes c out of the ring index if it is in it.
func (n *Node) ringRemove(c *Connection) {
	if c.inRing {
		n.ring.remove(c)
		c.inRing = false
	}
}

// nearest returns the member whose peer minimizes bidirectional ring
// distance to dst, excluding one peer address, with ties broken toward the
// smaller peer address — the same selection as the linear-scan oracle. The
// minimizer over a circularly sorted set is one of dst's two circular
// neighbors; with one possible exclusion per side, the four slots around
// the insertion point cover every candidate.
//
// Candidates are ranked on their keys where the keys can tell. The ring
// distance between a slot's key and dst's, in 64-bit ring arithmetic, is
// the top word of the true 160-bit ring distance computed without the
// borrow out of the low 96 bits: never more than one off. So two prefix
// distances that differ by three or more order the true distances the same
// way, and only a closer call pays for CmpRingDist on the full addresses.
// The excluded peer is likewise matched on its key before its address.
func (x *connIndex) nearest(dst, exclude Addr) *Connection {
	m := len(x.slots)
	if m == 0 {
		return nil
	}
	i, kd := x.search(&dst)
	ke := x.key(&exclude)
	var best *Connection
	var bestDist uint64
	for _, j := range [4]int{i - 2, i - 1, i, i + 1} {
		s := x.slots[((j%m)+m)%m]
		if s.c == best || (s.key == ke && s.c.Peer == exclude) {
			continue
		}
		d := min(s.key-kd, kd-s.key)
		if best != nil {
			if d >= bestDist+3 {
				continue
			}
			if d+3 > bestDist {
				cmp := dst.CmpRingDist(s.c.Peer, best.Peer)
				if cmp > 0 || (cmp == 0 && !s.c.Peer.Less(best.Peer)) {
					continue
				}
			}
		}
		best, bestDist = s.c, d
	}
	return best
}

// kthNearOnSide returns the k-th nearest (k counts from 1) structured-near
// connection on the given ring side — clockwise for right, counter-clockwise
// otherwise — or nil when the side holds fewer than k. The two directions
// are exact reversals: counter-clockwise distance is the ring complement of
// clockwise distance, so walking the sorted slice backwards yields ascending
// counter-clockwise distance. Both walks cover every near connection (a
// "side" is a direction, not a half), so a non-nil k-th exists on one side
// exactly when it does on the other.
func (n *Node) kthNearOnSide(right bool, k int) *Connection {
	ring := n.ring.slots
	for j := range ring {
		c := ring[j].c
		if !right {
			c = ring[len(ring)-1-j].c
		}
		if c.Has(StructuredNear) {
			if k--; k == 0 {
				return c
			}
		}
	}
	return nil
}

// dropConnRole removes role t from c, tearing the whole connection down
// (with a close to the peer) when no roles remain, and keeping the ring
// index consistent when the connection survives but stops being a ring
// router — e.g. a trimmed near link that still serves a leaf child.
func (n *Node) dropConnRole(c *Connection, t ConnType, reason dropReason) {
	if c.closed {
		return // its roles were uncounted when it dropped
	}
	if c.Has(t) {
		c.roles &^= maskOf(t)
		n.roleCount[t]--
	}
	// A connection torn down here reaches its OnDisconnection callbacks
	// without the role just dropped — an idle shortcut is not a structured
	// loss to repair.
	if c.roles == 0 {
		n.dropConnection(c, true, reason)
		return
	}
	if !c.structured() {
		n.ringRemove(c)
	}
}
