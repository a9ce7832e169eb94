package brunet

import "encoding/binary"

// The connection table is one index, Node.table: every live connection in
// address order, written by addConnection, dropConnRole, dropConnection and
// Stop. Lookup by peer, every ordered walk and the ring reads (ring.go) all
// search it; the ring is the slots whose connection carries a ring-routing
// role, read in place. Per-role live counts ride along so "how many near
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

// slot is one entry of a connIndex: a connection and, inline beside the
// pointer, the sort key of its peer, so a search reads the slice alone and
// touches a Connection only where keys tie.
type slot struct {
	key uint64
	c   *Connection
}

// connIndex holds connections sorted by peer address (Addr.Less). A slot's
// key is the top 64 bits of its peer's address — a prefix of what Addr.Less
// compares — so ordering by key, then by address among equal keys, is
// address order, and a binary search on keys alone lands on the (almost
// always empty or single) run of slots a full comparison has to settle.
//
// Address order is the iteration-order contract of the package: every walk
// whose body sends messages, draws randomness or drops connections visits
// connections in this order, so a run is a pure function of its seed. Walks
// whose body cannot change the table range over the slots directly; walks
// whose body may drop connections step with Node.firstConn/connAfter, which
// re-find their position by address after every step.
type connIndex struct {
	slots []slot
}

// addrKey returns the sort key of address a: its top 64 bits.
func addrKey(a *Addr) uint64 { return binary.BigEndian.Uint64(a[:8]) }

// first returns the first position whose key is not less than key. The one
// binary search under every lookup, walk step and routing decision:
// hand-rolled so the comparison is a direct machine-word compare.
func (x *connIndex) first(key uint64) int {
	lo, hi := 0, len(x.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.slots[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// search returns the insertion index for address a — the first position
// whose peer does not sort before a — and a's key.
func (x *connIndex) search(a *Addr) (i int, key uint64) {
	key = addrKey(a)
	i = x.first(key)
	for i < len(x.slots) && x.slots[i].key == key && x.slots[i].c.Peer.Less(*a) {
		i++
	}
	return i, key
}

// insert adds c at its sorted position and returns its key. The caller
// guarantees c is not a member.
func (x *connIndex) insert(c *Connection) uint64 {
	i, key := x.search(&c.Peer)
	x.slots = append(x.slots, slot{})
	copy(x.slots[i+1:], x.slots[i:])
	x.slots[i] = slot{key, c}
	return key
}

// remove deletes c, which the caller guarantees is a member, and returns
// the position it held and its key; the position is -1 if c was not there
// after all.
func (x *connIndex) remove(c *Connection) (int, uint64) {
	s := x.slots
	i, _ := x.search(&c.Peer)
	if i >= len(s) || s[i].c != c {
		// Defensive: the sorted position must hold c (peers are unique),
		// but fall back to a scan rather than drop a neighbor from the
		// index if the invariant is ever violated.
		for i = 0; i < len(s) && s[i].c != c; i++ {
		}
		if i == len(s) {
			return -1, 0
		}
	}
	key := s[i].key
	copy(s[i:], s[i+1:])
	s[len(s)-1] = slot{}
	x.slots = s[:len(s)-1]
	return i, key
}

// reset empties the index (node stop).
func (x *connIndex) reset() {
	clear(x.slots)
	x.slots = x.slots[:0]
}

// arcBit is the occupancy bit of a table key. A key is the top word of an
// address, so its top six bits name one of 64 equal arcs of the address
// space, and Node.occ has the arc's bit set exactly while some slot of the
// table lies in it.
func arcBit(key uint64) uint64 { return 1 << (key >> 58) }

// tableInsert and tableRemove are the only writers of Node.table besides
// Stop, and keep Node.occ in step with it. A removal settles its arc's bit
// from the two slots now either side of the gap: the slots are sorted, so
// if neither lies in the arc, nothing does.
func (n *Node) tableInsert(c *Connection) { n.occ |= arcBit(n.table.insert(c)) }

func (n *Node) tableRemove(c *Connection) {
	i, key := n.table.remove(c)
	if i < 0 {
		return
	}
	s, bit := n.table.slots, arcBit(key)
	if (i > 0 && arcBit(s[i-1].key) == bit) || (i < len(s) && arcBit(s[i].key) == bit) {
		return
	}
	n.occ &^= bit
}

// lookup returns the live connection to peer. A miss — the common case for
// a forwarded packet's source — is usually answered by occ, a word on the
// node's hot cache line, before the slots are read: a dozen connections
// leave most of the 64 arcs empty. A miss on the keys reads no Connection.
func (n *Node) lookup(peer Addr) (*Connection, bool) {
	x := &n.table
	key := addrKey(&peer)
	if n.occ&arcBit(key) == 0 {
		return nil, false
	}
	for i := x.first(key); i < len(x.slots) && x.slots[i].key == key; i++ {
		if c := x.slots[i].c; c.Peer.is(&peer) {
			return c, true
		}
	}
	return nil, false
}

// from returns the first connection at or after position i carrying a role
// in mask, or nil.
func (x *connIndex) from(i int, mask roleMask) *Connection {
	for ; i < len(x.slots); i++ {
		if c := x.slots[i].c; c.roles&mask != 0 {
			return c
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
	x := &n.table
	i, _ := x.search(&c.Peer)
	if i < len(x.slots) && x.slots[i].c.Peer == c.Peer {
		i++
	}
	return x.from(i, mask)
}

// Connections returns a snapshot of all live connections in address order.
func (n *Node) Connections() []*Connection {
	out := make([]*Connection, len(n.table.slots))
	for i, s := range n.table.slots {
		out[i] = s.c
	}
	return out
}

// addRole adds role t to c, counting it the first time.
func (n *Node) addRole(c *Connection, t ConnType) {
	if c.Has(t) {
		return
	}
	c.roles |= maskOf(t)
	n.roleCount[t]++
	n.Stats.Add(cConnRole+int(t), 1)
}

// uncountRoles takes every role c carries out of the per-role counts; the
// mask itself stays readable on the dead connection (onDisconnection
// callbacks ask what it was).
func (n *Node) uncountRoles(c *Connection) {
	for t := range n.roleCount {
		if c.Has(ConnType(t)) {
			n.roleCount[t]--
		}
	}
}

// dropConnRole removes role t from c, tearing the whole connection down
// (with a close to the peer) when no roles remain. A connection that
// survives keeps its slot; whether it is still a ring router is read off its
// roles.
func (n *Node) dropConnRole(c *Connection, t ConnType, reason dropReason) {
	if c.closed {
		return // its roles were uncounted when it dropped
	}
	if c.Has(t) {
		c.roles &^= maskOf(t)
		n.roleCount[t]--
	}
	// A connection torn down here reaches its onDisconnection callbacks
	// without the role just dropped — an idle shortcut is not a structured
	// loss to repair.
	if c.roles == 0 {
		n.dropConnection(c, true, reason)
	}
}

// dropReason is why dropConnection tore a connection down; each has its
// conn.dropped.<reason> counter. Only timeout and stream are involuntary,
// the losses the repair overlord re-links.
type dropReason uint8

const (
	dropTimeout dropReason = iota
	dropStream
	dropPeerClose
	dropPeerLeave
	dropLeave
	dropTrim
	dropIdle
	dropNoRelay

	numDropReasons = int(dropNoRelay) + 1
)
