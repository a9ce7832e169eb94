package brunet

import "wow/internal/metrics"

// The connection table is three views of one set, kept in step by
// addConnection/addTunnelConnection, dropConnRole, dropConnection and Stop:
// the conns map (lookup by peer), the address index below (every ordered
// walk) and the ring index (routing and ring-side queries over the
// structured subset). Per-role live counts ride along so "how many near
// links do I hold" is a field read.

// roleMask is a set of ConnTypes, one bit per role.
type roleMask uint8

// numConnTypes bounds the per-role arrays; roleMask has room for eight.
const numConnTypes = int(Relay) + 1

// allRoles matches every connection.
const allRoles roleMask = 1<<numConnTypes - 1

// maskOf returns the single-role mask for t.
func maskOf(t ConnType) roleMask { return 1 << uint(t) }

// structuredRoles are the ring-routing roles (see Connection.structured).
const structuredRoles = roleMask(1)<<StructuredNear | roleMask(1)<<StructuredFar | roleMask(1)<<Shortcut

// addrIndex holds every live connection sorted by peer address
// (Addr.Less). It is the iteration-order contract of the package: every
// walk whose body sends messages, draws randomness or drops connections
// visits connections in this order, so a run is a pure function of its
// seed. Walks whose body cannot change the table range over the slice
// directly; walks whose body may drop connections step with
// Node.firstConn/connAfter, which re-find their position by address after
// every step.
type addrIndex []*Connection

// search returns the first position whose peer is not less than a.
func (x addrIndex) search(a Addr) int {
	lo, hi := 0, len(x)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x[mid].Peer.Less(a) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds c at its sorted position. The caller guarantees c.Peer is
// not present (peers are unique map keys).
func (x *addrIndex) insert(c *Connection) {
	i := x.search(c.Peer)
	*x = append(*x, nil)
	copy((*x)[i+1:], (*x)[i:])
	(*x)[i] = c
}

// remove deletes c, which must be present.
func (x *addrIndex) remove(c *Connection) {
	s := *x
	i := s.search(c.Peer)
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	*x = s[:len(s)-1]
}

// from returns the first connection at or after position i carrying a role
// in mask, or nil.
func (x addrIndex) from(i int, mask roleMask) *Connection {
	for ; i < len(x); i++ {
		if x[i].roles&mask != 0 {
			return x[i]
		}
	}
	return nil
}

// firstConn starts a drop-tolerant walk over the connections carrying a
// role in mask, in address order:
//
//	for c := n.firstConn(m); c != nil; c = n.connAfter(c, m) { … }
//
// The body may drop any connection, c included. A connection dropped before
// the walk reaches it is not visited; nothing is visited twice.
func (n *Node) firstConn(mask roleMask) *Connection { return n.table.from(0, mask) }

// connAfter continues a firstConn walk: the first matching connection whose
// peer sorts after c's, whether or not c is still in the table.
func (n *Node) connAfter(c *Connection, mask roleMask) *Connection {
	i := n.table.search(c.Peer)
	if i < len(n.table) && n.table[i].Peer == c.Peer {
		i++
	}
	return n.table.from(i, mask)
}

// Connections returns a snapshot of all live connections in address order.
func (n *Node) Connections() []*Connection {
	out := make([]*Connection, len(n.table))
	copy(out, n.table)
	return out
}

// addRole adds role t to c, counting it the first time.
func (n *Node) addRole(c *Connection, t ConnType) {
	if c.Has(t) {
		return
	}
	c.roles |= maskOf(t)
	n.roleCount[t]++
	n.countVia(&n.statConnType[t], connStatNames[t])
}

// uncountRoles takes every role c carries out of the per-role counts; the
// mask itself stays readable on the dead connection (OnDisconnection
// callbacks ask what it was).
func (n *Node) uncountRoles(c *Connection) {
	for t := range n.roleCount {
		if c.Has(ConnType(t)) {
			n.roleCount[t]--
		}
	}
}

// dropReasons are the teardown reasons dropConnection is called with.
var dropReasons = [...]string{"timeout", "stream", "peer_close", "peer_leave", "leave", "trim", "idle", "norelay"}

// connStatNames and dropStatNames are the "conn.<role>" and
// "conn.dropped.<reason>" counter names, spelled out once per process
// instead of once per connection event.
var (
	connStatNames = func() (names [numConnTypes]string) {
		for t := range names {
			names[t] = "conn." + ConnType(t).String()
		}
		return
	}()
	dropStatNames = func() (names [len(dropReasons)]string) {
		for i, reason := range dropReasons {
			names[i] = "conn.dropped." + reason
		}
		return
	}()
)

// countVia bumps the named counter through its handle, resolving the handle
// the first time this node counts the event — so a node registers exactly
// the counters it has used, and NewNode (which the benchmark's set-up times
// by the tens of thousands) pays nothing for them.
func (n *Node) countVia(h *metrics.Handle, name string) {
	if *h == (metrics.Handle{}) {
		*h = n.Stats.Handle(name)
	}
	h.Inc(1)
}

// countDrop bumps the drop counter for reason: through a handle for the
// reasons this package uses, by name for any other.
func (n *Node) countDrop(reason string) {
	for i, r := range dropReasons {
		if r == reason {
			n.countVia(&n.statDropped[i], dropStatNames[i])
			return
		}
	}
	n.Stats.Inc("conn.dropped."+reason, 1)
}
