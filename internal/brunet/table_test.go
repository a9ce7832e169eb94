package brunet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"wow/internal/phys"
	"wow/internal/sim"
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

// indexHolds checks the index's own invariants by the byte-wise reference:
// every key is the top 64 bits of the slot's peer address, and the slots are
// in strictly ascending address order.
func indexHolds(x *connIndex) error {
	for i, s := range x.slots {
		if s.key != refWord(s.c.Peer, 0) {
			return fmt.Errorf("slot %d: key %#x, peer %s", i, s.key, s.c.Peer.FullString())
		}
		if i > 0 && refCmp(x.slots[i-1].c.Peer, s.c.Peer) >= 0 {
			return fmt.Errorf("index out of order at %d", i)
		}
	}
	return nil
}

// occOf is the occupancy word by definition, from the shadow set and the
// address bytes alone: one bit per 64th of the address space holding a peer.
func occOf(sh shadow) (occ uint64) {
	for peer := range sh {
		occ |= 1 << (peer[0] >> 2)
	}
	return occ
}

// tableHolds checks every connection-table invariant: the index ≡ shadow set
// ≡ sort oracle in content and order, its keys the peers' top words, the
// occupancy word ≡ the OR over the peers' arcs, Connections() a snapshot of
// it, role counts ≡ a recount, per-role and per-mask walks ≡ the filtered
// oracle, and nothing closed left inside.
func tableHolds(n *Node, sh shadow) error {
	want := sh.sorted()
	snap := n.Connections()
	if !sameConns(snap, want) {
		return fmt.Errorf("Connections() %v, sort oracle %v", snap, want)
	}
	if len(n.table.slots) != len(want) {
		return fmt.Errorf("table holds %d, sort oracle %d", len(n.table.slots), len(want))
	}
	if err := indexHolds(&n.table); err != nil {
		return fmt.Errorf("table: %w", err)
	}
	if want := occOf(sh); n.occ != want {
		return fmt.Errorf("occupancy word %064b, peers occupy %064b", n.occ, want)
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
	return nil
}

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
			n.dropConnection(victim, false, dropTrim)
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
// and restart — the connection table stays the live set in address order,
// and lookup answers for every address, held or not, as the shadow map does.
// Each held edge keeps the kind the oracle gives it: a direct add makes or
// upgrades a direct edge, a tunnel add makes a tunnel edge only where no
// connection was held and never downgrades a direct one.
func TestQuickConnTableChurn(t *testing.T) {
	var failure error
	f := func(ops []uint32) bool {
		n := ringTestNode(41)
		sh := watch(n)
		tunneled := map[Addr]bool{} // the oracle's edge kind per held peer
		if err := n.Start(nil); err != nil {
			failure = err
			return false
		}
		universe := make([]Addr, 24)
		for i := range universe {
			universe[i] = RandomAddr(rand.New(rand.NewSource(41 + int64(i))))
			if i >= 16 {
				// The last eight each share an arc of the occupancy word
				// with an earlier member, so removals leave arcs occupied.
				universe[i][0] = universe[i-16][0]
			}
		}
		// Probes for lookup: the universe (held or not, as churn has it);
		// for each member an address never held that shares its key, one
		// that shares only its arc, and one in the arc either side of it;
		// and one address in each of the 64 arcs, most of them empty.
		probes := append([]Addr(nil), universe...)
		for _, a := range universe {
			sameKey, sameArc, below, above := a, a, a, a
			sameKey[AddrBytes-1] ^= 1
			sameArc[1] ^= 0x80
			below[0] -= 4
			above[0] += 4
			probes = append(probes, sameKey, sameArc, below, above)
		}
		for arc := 0; arc < 64; arc++ {
			probes = append(probes, addrOf(uint64(arc)<<58|uint64(arc), lowHalf))
		}
		for step, op := range ops {
			peer := universe[int(op>>8)%len(universe)]
			typ := churnTypes[int(op>>16)%len(churnTypes)]
			switch op % 16 {
			case 0, 1, 2, 3, 4: // add, add a role, or relink from a new endpoint
				ep := phys.Endpoint{IP: phys.IP(1 + op>>24), Port: 1}
				n.addConnection(peer, ep, nil, nil, nil, typ)
				tunneled[peer] = false
			case 5, 6: // tunnel edge (or a role on an existing connection)
				if _, held := sh[peer]; !held {
					tunneled[peer] = true
				}
				n.addConnection(peer, phys.Endpoint{}, nil, []Addr{universe[int(op>>20)%len(universe)]}, nil, typ)
			case 7, 8, 9:
				if c, ok := sh[peer]; ok {
					n.dropConnRole(c, typ, dropTrim)
				}
			case 10, 11, 12:
				if c, ok := sh[peer]; ok {
					n.dropConnection(c, false, dropTrim)
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
					if len(n.table.slots) != 0 {
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
			for peer, c := range sh {
				if c.Tunneled() != tunneled[peer] {
					failure = fmt.Errorf("step %d (op %#x): %s tunneled=%v, oracle %v", step, op, c, c.Tunneled(), tunneled[peer])
					return false
				}
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

// A connection torn down by losing its last role reaches onDisconnection
// callbacks without that role: the repair overlord must not mistake an idle
// shortcut or a trimmed near link for a structured loss, and the shortcut
// overlord reads the cleared role right after the drop.
func TestDropLastRoleClearsItBeforeCallbacks(t *testing.T) {
	n := ringTestNode(47)
	sh := watch(n)
	var seen []bool
	n.onDisconnection(func(c *Connection) { seen = append(seen, c.Has(Shortcut) || c.structured()) })
	c := n.addConnection(AddrFromString("peer"), phys.Endpoint{IP: 1, Port: 1}, nil, nil, nil, Shortcut)
	n.dropConnRole(c, Shortcut, dropIdle)
	if !c.closed || c.Has(Shortcut) || len(seen) != 1 || seen[0] {
		t.Fatalf("closed=%v Has(Shortcut)=%v callbacks saw the role: %v", c.closed, c.Has(Shortcut), seen)
	}
	if err := tableHolds(n, sh); err != nil {
		t.Fatal(err)
	}
}

// The occupancy word at the edges the random universe may not reach: the
// first and last arcs, peers either side of an arc boundary, and an arc
// that stays occupied until its last peer goes — removing a peer settles
// its bit from the two slots beside the gap and from nothing else.
func TestOccSettlesOnRemove(t *testing.T) {
	n := ringTestNode(53)
	sh := watch(n)
	ep := phys.Endpoint{IP: 1, Port: 1}
	const arc = uint64(1) << 58
	peers := []Addr{
		addrOf(0, lowOne),           // bottom of arc 0
		addrOf(arc-1, lowOnes),      // top of arc 0
		addrOf(arc, lowZero),        // bottom of arc 1
		addrOf(17*arc+5, lowHalf),   // three in arc 17
		addrOf(17*arc+6, lowHalf),   //
		addrOf(18*arc-1, lowOnes),   //
		addrOf(18*arc, lowZero),     // bottom of arc 18
		addrOf(63*arc, lowZero),     // bottom of arc 63
		addrOf(^uint64(0), lowOnes), // top of arc 63
	}
	check := func(when string) {
		t.Helper()
		if err := tableHolds(n, sh); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for _, p := range peers {
			want, held := sh[p]
			if got, ok := n.lookup(p); got != want || ok != held {
				t.Fatalf("%s: lookup(%s) = %v, %v; shadow %v, %v", when, p.FullString(), got, ok, want, held)
			}
		}
	}
	for _, p := range peers {
		n.addConnection(p, ep, nil, nil, nil, Leaf)
		check("after adding " + p.FullString())
	}
	if want := uint64(1)<<0 | 1<<1 | 1<<17 | 1<<18 | 1<<63; n.occ != want {
		t.Fatalf("occupancy word %064b, want %064b", n.occ, want)
	}
	// Middle of an arc first, then its edges, then the rest in an order
	// that removes a boundary peer while the peer across the boundary stays.
	for _, i := range []int{4, 5, 3, 2, 0, 1, 8, 6, 7} {
		n.dropConnection(sh[peers[i]], false, dropTrim)
		check("after dropping " + peers[i].FullString())
	}
	if n.occ != 0 {
		t.Fatalf("occupancy word %064b on an empty table", n.occ)
	}
}

// TestHotFieldsLayout pins what DESIGN.md §6 claims of a hop's footprint in
// the router: the fields the forward path reads of a Node and of a
// Connection end inside the struct's first 64 bytes. For Node the bound is
// 56: a Node carries the allocator's 8-byte header in front (pointerful
// objects over 512 bytes), which also makes 632 the last size in the
// 640-byte class — one word more and every node costs 704. A Connection
// stays within the 192-byte class, where every object starts on a cache
// line; phys's TestHotFieldsPacketSize holds a Packet to 64 bytes. A
// Connection's second line is the keepalive plane's (DESIGN.md §6).
func TestHotFieldsLayout(t *testing.T) {
	type field struct {
		name      string
		off, size uintptr
	}
	var n Node
	var c Connection
	for _, s := range []struct {
		name   string
		limit  uintptr
		fields []field
	}{
		{"Node", 56, []field{
			{"addr", unsafe.Offsetof(n.addr), unsafe.Sizeof(n.addr)},
			{"up", unsafe.Offsetof(n.up), unsafe.Sizeof(n.up)},
			{"sock", unsafe.Offsetof(n.sock), unsafe.Sizeof(n.sock)},
			{"flight", unsafe.Offsetof(n.flight), unsafe.Sizeof(n.flight)},
			{"statForwarded", unsafe.Offsetof(n.statForwarded), unsafe.Sizeof(n.statForwarded)},
			{"occ", unsafe.Offsetof(n.occ), unsafe.Sizeof(n.occ)},
		}},
		{"Connection", 64, []field{
			{"Peer", unsafe.Offsetof(c.Peer), unsafe.Sizeof(c.Peer)},
			{"EP", unsafe.Offsetof(c.EP), unsafe.Sizeof(c.EP)},
			{"roles", unsafe.Offsetof(c.roles), unsafe.Sizeof(c.roles)},
			{"closed", unsafe.Offsetof(c.closed), unsafe.Sizeof(c.closed)},
			{"Stream", unsafe.Offsetof(c.Stream), unsafe.Sizeof(c.Stream)},
			{"Relays", unsafe.Offsetof(c.Relays), unsafe.Sizeof(c.Relays)},
		}},
	} {
		for _, f := range s.fields {
			if f.off+f.size > s.limit {
				t.Errorf("%s.%s ends at byte %d, past byte %d: the field moved off the hot cache line", s.name, f.name, f.off+f.size, s.limit)
			}
		}
	}
	// The keepalive plane's line: touch and a keepalive step read and
	// write these fields (and closed, on the first line), so they sit on
	// bytes 64–127, and what only tunnels, status gossip and the RTT
	// estimators read stays off that line.
	for _, f := range []field{
		{"node", unsafe.Offsetof(c.node), unsafe.Sizeof(c.node)},
		{"lastHeard", unsafe.Offsetof(c.lastHeard), unsafe.Sizeof(c.lastHeard)},
		{"due", unsafe.Offsetof(c.due), unsafe.Sizeof(c.due)},
		{"pingWait", unsafe.Offsetof(c.pingWait), unsafe.Sizeof(c.pingWait)},
		{"awaiting", unsafe.Offsetof(c.awaiting), unsafe.Sizeof(c.awaiting)},
		{"pingSentAt", unsafe.Offsetof(c.pingSentAt), unsafe.Sizeof(c.pingSentAt)},
		{"pingRetry", unsafe.Offsetof(c.pingRetry), unsafe.Sizeof(c.pingRetry)},
		{"timedOut", unsafe.Offsetof(c.timedOut), unsafe.Sizeof(c.timedOut)},
		{"dueTimeout", unsafe.Offsetof(c.dueTimeout), unsafe.Sizeof(c.dueTimeout)},
		{"suspected", unsafe.Offsetof(c.suspected), unsafe.Sizeof(c.suspected)},
	} {
		if f.off < 64 || f.off+f.size > 128 {
			t.Errorf("Connection.%s lies at bytes %d–%d, off the keepalive line (bytes 64–127)", f.name, f.off, f.off+f.size-1)
		}
	}
	for _, f := range []field{
		{"tun", unsafe.Offsetof(c.tun), unsafe.Sizeof(c.tun)},
		{"URIs", unsafe.Offsetof(c.URIs), unsafe.Sizeof(c.URIs)},
		{"srtt", unsafe.Offsetof(c.srtt), unsafe.Sizeof(c.srtt)},
		{"rttvar", unsafe.Offsetof(c.rttvar), unsafe.Sizeof(c.rttvar)},
		{"peerLoad", unsafe.Offsetof(c.peerLoad), unsafe.Sizeof(c.peerLoad)},
	} {
		if f.off < 128 && f.off+f.size > 64 {
			t.Errorf("Connection.%s lies at bytes %d–%d, on the keepalive line (bytes 64–127)", f.name, f.off, f.off+f.size-1)
		}
	}
	if off := unsafe.Offsetof(n.table); off != 56 {
		t.Errorf("Node.table starts at byte %d, want 56: right behind the hot fields", off)
	}
	if size := unsafe.Sizeof(n); size > 632 {
		t.Errorf("Node is %d bytes, past 632: it left the 640-byte size class for the 704-byte one", size)
	}
	if size := unsafe.Sizeof(c); size > 192 {
		t.Errorf("Connection is %d bytes, past the 192-byte size class", size)
	}
}

// TestHotFieldsMessageSizes pins the in-memory size of a relay candidate and
// of the CTM message that holds tunnelMaxRelays of them: NeighborInfo's Load
// sits in the padding after Addr. Every shard's CTM list, every candidate
// stash and every gossiped neighbor list is made of these. The wire sizes
// (ctmSize, statusMsgSize) are estimates of their own and do not follow.
// (The debug list's owner stamp and sites make a ctmMsg bigger under -tags
// packetdebug.)
func TestHotFieldsMessageSizes(t *testing.T) {
	if size := unsafe.Sizeof(NeighborInfo{}); size != 48 {
		t.Errorf("NeighborInfo is %d bytes, want 48", size)
	}
	if size := unsafe.Sizeof(ctmMsg{}); size != 304 && !sim.PoolDebug {
		t.Errorf("ctmMsg is %d bytes, want 304", size)
	}
}

// TestHotFieldsShardPoolLines keeps a cache line between a shard's free
// lists and either end of its pool. The pools of two shards are made one
// after the other, as each shard's first node is built, and nothing the
// allocator puts beside a pool may share a line with its lists (DESIGN.md
// §9, "Per-shard state owns its cache lines").
func TestHotFieldsShardPoolLines(t *testing.T) {
	const line = 64
	typ := reflect.TypeOf(shardPool{})
	first, end := typ.Size(), uintptr(0)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "_" {
			first, end = min(first, f.Offset), max(end, f.Offset+f.Type.Size())
		}
	}
	if first < line || typ.Size()-end < line {
		t.Errorf("shardPool's lists lie at bytes %d to %d of %d: want a line of padding on each side", first, end, typ.Size())
	}
}
