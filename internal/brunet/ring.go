package brunet

// ringIndex keeps a node's structured connections sorted by clockwise
// distance from the node's own address — the circular order of the ring as
// seen from this node. It is maintained incrementally on every connection
// add and role drop, so the routing hot path finds the connection nearest
// to a destination with one binary search plus a constant-size neighbor
// probe instead of a linear scan, and the near overlord reads the k-th
// neighbor of a ring side off it without sorting or building a slice.
//
// Membership invariant: a connection is in the index exactly while
// Connection.structured() is true and the connection is live; the inRing
// flag on the connection mirrors membership so insert/remove are
// idempotent.
type ringIndex struct {
	origin Addr
	conns  []*Connection
}

// reset clears the index (node stop) and re-anchors it at origin.
func (r *ringIndex) reset(origin Addr) {
	r.origin = origin
	for _, c := range r.conns {
		c.inRing = false
	}
	r.conns = r.conns[:0]
}

// search returns the insertion index for address a: the first position
// whose peer is at a clockwise distance from origin no smaller than a's.
// Hand-rolled binary search keeps the comparator call direct (no closure)
// on the routing hot path.
func (r *ringIndex) search(a Addr) int {
	lo, hi := 0, len(r.conns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.origin.CmpClockwise(r.conns[mid].Peer, a) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds c at its sorted position. Inserting a member is a no-op.
func (r *ringIndex) insert(c *Connection) {
	if c.inRing {
		return
	}
	i := r.search(c.Peer)
	r.conns = append(r.conns, nil)
	copy(r.conns[i+1:], r.conns[i:])
	r.conns[i] = c
	c.inRing = true
}

// remove deletes c from the index. Removing a non-member is a no-op.
func (r *ringIndex) remove(c *Connection) {
	if !c.inRing {
		return
	}
	i := r.search(c.Peer)
	if i >= len(r.conns) || r.conns[i] != c {
		// Defensive: the sorted position must hold c (peers are unique
		// map keys), but fall back to a scan rather than corrupt the
		// index if the invariant is ever violated.
		i = -1
		for j, o := range r.conns {
			if o == c {
				i = j
				break
			}
		}
		if i < 0 {
			c.inRing = false
			return
		}
	}
	r.conns = append(r.conns[:i], r.conns[i+1:]...)
	c.inRing = false
}

// nearest returns the member whose peer minimizes bidirectional ring
// distance to dst, excluding one peer address, with ties broken toward the
// smaller peer address — the same selection as the linear-scan oracle. The
// minimizer over a circularly sorted set is one of dst's two circular
// neighbors; with one possible exclusion per side, the four slots around
// the insertion point cover every candidate.
func (r *ringIndex) nearest(dst, exclude Addr) *Connection {
	m := len(r.conns)
	if m == 0 {
		return nil
	}
	i := r.search(dst)
	var best *Connection
	for _, j := range [4]int{i - 2, i - 1, i, i + 1} {
		j = ((j % m) + m) % m
		c := r.conns[j]
		if c.Peer == exclude || c == best {
			continue
		}
		if best == nil {
			best = c
			continue
		}
		cmp := dst.CmpRingDist(c.Peer, best.Peer)
		if cmp < 0 || (cmp == 0 && c.Peer.Less(best.Peer)) {
			best = c
		}
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
	ring := n.ring.conns
	for j := range ring {
		c := ring[j]
		if !right {
			c = ring[len(ring)-1-j]
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
func (n *Node) dropConnRole(c *Connection, t ConnType, reason string) {
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
		n.ring.remove(c)
	}
}
