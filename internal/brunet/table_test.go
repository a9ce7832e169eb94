package brunet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wow/internal/phys"
)

// walkMasks are the role sets the table's walks are checked under: every
// single role, the structured subset and everything.
var walkMasks = []roleMask{
	maskOf(Leaf), maskOf(StructuredNear), maskOf(StructuredFar), maskOf(Shortcut), maskOf(Relay),
	structuredRoles, allRoles,
}

// filterMask is the walk oracle: the sorted-copy snapshot filtered by mask.
func filterMask(conns []*Connection, mask roleMask) []*Connection {
	var out []*Connection
	for _, c := range conns {
		if c.roles&mask != 0 {
			out = append(out, c)
		}
	}
	return out
}

// walkMask collects a firstConn/connAfter walk.
func walkMask(n *Node, mask roleMask) []*Connection {
	var out []*Connection
	for c := n.firstConn(mask); c != nil; c = n.connAfter(c, mask) {
		out = append(out, c)
	}
	return out
}

func sameConns(a, b []*Connection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// indexHolds checks one index's own invariants by the byte-wise reference:
// every key is the top 64 bits of the clockwise distance from the origin to
// the slot's peer, and the slots are in strictly ascending order of that
// distance.
func indexHolds(x *connIndex) error {
	for i, s := range x.slots {
		d := refSub(s.c.Peer, x.origin)
		if s.key != refWord(d, 0) {
			return fmt.Errorf("slot %d: key %#x, distance %s", i, s.key, d.FullString())
		}
		if i > 0 && refCmp(refSub(x.slots[i-1].c.Peer, x.origin), d) >= 0 {
			return fmt.Errorf("index out of order at %d", i)
		}
	}
	return nil
}

// ringIndexHolds checks the ring index against the shadow set: membership
// is exactly the structured subset, mirrored by inRing, in strictly
// ascending clockwise order from the node's address.
func ringIndexHolds(n *Node, sh shadow) error {
	structured := 0
	for _, c := range sh {
		if c.structured() != c.inRing {
			return fmt.Errorf("%s: structured=%v inRing=%v", c, c.structured(), c.inRing)
		}
		if c.structured() {
			structured++
		}
	}
	if len(n.ring.slots) != structured {
		return fmt.Errorf("ring index holds %d, shadow has %d structured", len(n.ring.slots), structured)
	}
	for _, s := range n.ring.slots {
		if sh[s.c.Peer] != s.c {
			return fmt.Errorf("ring index holds %s, not live", s.c)
		}
	}
	if n.ring.origin != n.addr {
		return fmt.Errorf("ring index anchored at %s", n.ring.origin)
	}
	return indexHolds(&n.ring)
}

// tableHolds checks every connection-table invariant: address index ≡
// shadow set ≡ sort oracle in content and order, its keys the peers' top
// words, Connections() a snapshot of it, role counts ≡ a recount, per-role
// and per-mask walks ≡ the filtered oracle, nothing closed left inside, and
// the ring index sound.
func tableHolds(n *Node, sh shadow) error {
	want := sh.sorted()
	snap := n.Connections()
	if !sameConns(snap, want) {
		return fmt.Errorf("Connections() %v, sort oracle %v", snap, want)
	}
	if len(n.table.slots) != len(want) {
		return fmt.Errorf("address index holds %d, sort oracle %d", len(n.table.slots), len(want))
	}
	if n.table.origin != Zero {
		return fmt.Errorf("address index anchored at %s", n.table.origin)
	}
	if err := indexHolds(&n.table); err != nil {
		return fmt.Errorf("address index: %w", err)
	}
	var recount [numConnTypes]int
	for _, c := range want {
		if c.closed {
			return fmt.Errorf("closed connection %s still in the table", c)
		}
		if c.roles == 0 {
			return fmt.Errorf("roleless connection %s in the table", c)
		}
		for _, t := range c.Types() {
			recount[t]++
		}
	}
	if recount != n.roleCount {
		return fmt.Errorf("role counts %v, recount %v", n.roleCount, recount)
	}
	for t := ConnType(0); int(t) < numConnTypes; t++ {
		if got := walkMask(n, maskOf(t)); !sameConns(got, sh.ofTypeSorted(t)) {
			return fmt.Errorf("walk over %s: %v, oracle %v", t, got, sh.ofTypeSorted(t))
		}
	}
	for _, mask := range walkMasks {
		if got := walkMask(n, mask); !sameConns(got, filterMask(want, mask)) {
			return fmt.Errorf("walk over mask %05b: %v, oracle %v", mask, got, filterMask(want, mask))
		}
	}
	return ringIndexHolds(n, sh)
}

var tableChurnTypes = []ConnType{StructuredNear, StructuredFar, Shortcut, Leaf, Relay}

// dropDuringWalk walks the connections matching mask and, steered by bits,
// drops the current connection, one already passed or one still ahead from
// inside the loop body. It checks the walk against a model run on the
// sort-oracle snapshot taken at entry: every connection still live when the
// walk reaches it is visited, in order, exactly once.
func dropDuringWalk(n *Node, sh shadow, mask roleMask, bits uint32) error {
	snap := filterMask(sh.sorted(), mask)
	var got, want []*Connection
	i := 0
	for c := n.firstConn(mask); c != nil; c = n.connAfter(c, mask) {
		got = append(got, c)
		for i < len(snap) && snap[i].closed {
			i++ // dropped before the walk reached it: not visited
		}
		if i < len(snap) {
			want = append(want, snap[i])
		}
		var victim *Connection
		switch (bits >> (2 * uint(len(got)))) % 4 {
		case 1:
			victim = c
		case 2:
			victim = snap[0]
		case 3:
			victim = snap[len(snap)-1]
		}
		i++
		if victim != nil && !victim.closed {
			n.dropConnection(victim, false, "test")
		}
	}
	for ; i < len(snap); i++ {
		if !snap[i].closed {
			want = append(want, snap[i])
		}
	}
	if !sameConns(got, want) {
		return fmt.Errorf("walk with drops visited %v, want %v", got, want)
	}
	return nil
}

// Property: through arbitrary churn — adds, role adds, relinks, tunnel
// edges, role drops, full drops, drops issued from inside a walk, node stop
// and restart — the two indexes of the connection table stay one set, and
// lookup answers for every address, held or not, as the shadow map does.
func TestQuickConnTableChurn(t *testing.T) {
	var failure error
	f := func(ops []uint32) bool {
		n := ringTestNode(41)
		sh := watch(n)
		if err := n.Start(nil); err != nil {
			failure = err
			return false
		}
		universe := make([]Addr, 24)
		for i := range universe {
			universe[i] = RandomAddr(rand.New(rand.NewSource(41 + int64(i))))
		}
		// Probes for lookup: the universe (held or not, as churn has it)
		// and, for each member, an address never held that shares its key.
		probes := append([]Addr(nil), universe...)
		for _, a := range universe {
			a[AddrBytes-1] ^= 1
			probes = append(probes, a)
		}
		for step, op := range ops {
			peer := universe[int(op>>8)%len(universe)]
			typ := tableChurnTypes[int(op>>16)%len(tableChurnTypes)]
			switch op % 16 {
			case 0, 1, 2, 3, 4: // add, add a role, or relink from a new endpoint
				ep := phys.Endpoint{IP: phys.IP(1 + op>>24), Port: 1}
				n.addConnection(peer, ep, nil, nil, typ)
			case 5, 6: // tunnel edge (or a role on an existing connection)
				n.addTunnelConnection(peer, []Addr{universe[int(op>>20)%len(universe)]}, nil, typ)
			case 7, 8, 9:
				if c, ok := sh[peer]; ok {
					n.dropConnRole(c, typ, "test")
				}
			case 10, 11, 12:
				if c, ok := sh[peer]; ok {
					n.dropConnection(c, false, "test")
				}
			case 13, 14:
				if err := dropDuringWalk(n, sh, walkMasks[int(op>>16)%len(walkMasks)], op>>4); err != nil {
					failure = fmt.Errorf("step %d: %w", step, err)
					return false
				}
			case 15:
				if op>>28 == 0 { // rarer: a restart empties everything
					n.Stop()
					clear(sh) // Stop runs no callbacks
					if len(n.table.slots) != 0 || len(n.ring.slots) != 0 {
						failure = fmt.Errorf("step %d: Stop left connections behind", step)
						return false
					}
					if err := n.Start(nil); err != nil {
						failure = err
						return false
					}
				}
			}
			if err := tableHolds(n, sh); err != nil {
				failure = fmt.Errorf("step %d (op %#x): %w", step, op, err)
				return false
			}
			for _, p := range probes {
				want, held := sh[p]
				if got, ok := n.lookup(p); got != want || ok != held {
					failure = fmt.Errorf("step %d (op %#x): lookup(%s) = %v, %v; shadow %v, %v", step, op, p, got, ok, want, held)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("%v\n%v", err, failure)
	}
}

// A connection torn down by losing its last role reaches OnDisconnection
// callbacks without that role: the repair overlord must not mistake an idle
// shortcut or a trimmed near link for a structured loss, and the shortcut
// overlord reads the cleared role right after the drop.
func TestDropLastRoleClearsItBeforeCallbacks(t *testing.T) {
	n := ringTestNode(47)
	sh := watch(n)
	var seen []bool
	n.OnDisconnection(func(c *Connection) { seen = append(seen, c.Has(Shortcut) || c.structured()) })
	c := n.addConnection(AddrFromString("peer"), phys.Endpoint{IP: 1, Port: 1}, nil, nil, Shortcut)
	n.dropConnRole(c, Shortcut, "idle")
	if !c.closed || c.Has(Shortcut) || len(seen) != 1 || seen[0] {
		t.Fatalf("closed=%v Has(Shortcut)=%v callbacks saw the role: %v", c.closed, c.Has(Shortcut), seen)
	}
	if err := tableHolds(n, sh); err != nil {
		t.Fatal(err)
	}
}
