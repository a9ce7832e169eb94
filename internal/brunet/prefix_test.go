package brunet

import (
	"fmt"
	"math/rand"
	"testing"

	"wow/internal/phys"
)

// The cases the random properties will not hit: 64-bit sort keys that
// collide or sit within the ±1 the borrow out of the low 96 bits can move a
// prefix distance. Random 160-bit addresses never share a top word, so
// these build their addresses by hand — byte by byte, not through the word
// helpers under test.

// low96 patterns for the bytes below a key: the extremes and the middle.
var (
	lowZero = [12]byte{}
	lowOne  = [12]byte{11: 1}
	lowHalf = [12]byte{0: 0x80}
	lowOnes = [12]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	lows    = [][12]byte{lowZero, lowOne, lowHalf, lowOnes}
)

// addrOf assembles an address from its top 64 bits and its low 96.
func addrOf(top uint64, low [12]byte) (a Addr) {
	for i := 7; i >= 0; i-- {
		a[i] = byte(top)
		top >>= 8
	}
	copy(a[8:], low[:])
	return a
}

// A node whose peers all share the top 64 bits: the key decides nothing, so
// table order, lookup and the drop-tolerant walk all run on the full
// comparator inside one equal-key run.
func TestPrefixTieTableOrderLookupAndWalk(t *testing.T) {
	const top = 0x0123456789abcdef
	n := ringTestNode(61)
	sh := watch(n)
	ep := phys.Endpoint{IP: 1, Port: 1}
	held := []Addr{addrOf(top, lowHalf), addrOf(top, lowZero), addrOf(top, lowOnes), addrOf(top, lowOne),
		addrOf(top, [12]byte{5: 7}), addrOf(top+1, lowZero), addrOf(top-1, lowOnes)}
	for i, a := range held {
		n.addConnection(a, ep, nil, nil, nil, churnTypes[i%len(churnTypes)])
		if err := tableHolds(n, sh); err != nil {
			t.Fatalf("after add %d: %v", i, err)
		}
	}
	absent := []Addr{addrOf(top, [12]byte{11: 2}), addrOf(top, [12]byte{0: 0x7F}), addrOf(top, [12]byte{0: 0x80, 11: 1}),
		addrOf(top+2, lowZero), addrOf(top-2, lowZero), {}}
	check := func(when string) {
		t.Helper()
		for _, a := range append(append([]Addr(nil), held...), absent...) {
			want, ok := sh[a]
			if got, hit := n.lookup(a); got != want || hit != ok {
				t.Fatalf("%s: lookup(%s) = %v, %v; shadow %v, %v", when, a.FullString(), got, hit, want, ok)
			}
		}
	}
	check("full table")

	// connAfter across a dropped entry, inside the equal-key run: the walk
	// resumes at the next peer whether the connection it stands on, the one
	// ahead, or both have gone.
	run := sh.sorted()[1:6] // the five sharing top
	a, b, c := run[1], run[2], run[3]
	n.dropConnection(b, false, dropTrim)
	if got := n.connAfter(a, allRoles); got != c {
		t.Fatalf("connAfter over a dropped successor = %v, want %v", got, c)
	}
	if got := n.connAfter(b, allRoles); got != c {
		t.Fatalf("connAfter from a dropped connection = %v, want %v", got, c)
	}
	n.dropConnection(a, false, dropTrim)
	if got := n.connAfter(a, allRoles); got != c {
		t.Fatalf("connAfter from a dropped connection over a dropped successor = %v, want %v", got, c)
	}
	check("after drops")
	if err := tableHolds(n, sh); err != nil {
		t.Fatal(err)
	}
	for bits := uint32(0); bits < 64; bits++ {
		for _, gone := range []*Connection{a, b} { // refill, then walk with drops
			n.addConnection(gone.Peer, ep, nil, nil, nil, StructuredFar)
		}
		if err := dropDuringWalk(n, sh, allRoles, bits*0x9E3779B1); err != nil {
			t.Fatalf("bits %#x: %v", bits, err)
		}
		if err := tableHolds(n, sh); err != nil {
			t.Fatalf("bits %#x: %v", bits, err)
		}
	}
	check("after walks with drops")
}

// Ring peers whose keys lie within ±3 of each other and of the
// destination's, with low bits at the extremes so the borrow goes both
// ways: exactly the band where nearestConn may not trust a prefix distance
// and must fall through to the full comparison. Holds nearestConn to the
// linear oracle for every destination and exclusion in the band, with the
// destination also half a ring away (prefix distances at 2^63). The bands
// sit at absolute keys — the table's own — at an ordinary key, across
// address zero (keys wrapping through the end of the table) and at 2^63;
// and at the same offsets from the node's own address. About two slots in
// five are leaf- or relay-only, so the walks to dst's two ring neighbors
// step over slots inside the band that are not ring routers.
func TestPrefixTieNearestMatchesOracle(t *testing.T) {
	origin := AddrFromString("ring-test-origin") // ringTestNode's address
	rng := rand.New(rand.NewSource(67))
	ep := phys.Endpoint{IP: 1, Port: 1}
	for _, b := range []struct {
		anchor Addr
		base   uint64
	}{
		{Zero, 0x3141592653589793}, {Zero, 0}, {Zero, 1 << 63},
		{origin, 0x3141592653589793}, {origin, 1}, {origin, ^uint64(0) - 1}, {origin, 1 << 63},
	} {
		// Candidate peers: every key in base−3…base+3 with every low pattern.
		var band []Addr
		for dk := -3; dk <= 3; dk++ {
			for _, low := range lows {
				band = append(band, refAdd(b.anchor, addrOf(b.base+uint64(dk), low)))
			}
		}
		var dsts []Addr
		for dk := -5; dk <= 5; dk++ {
			for _, low := range lows {
				d := refAdd(b.anchor, addrOf(b.base+uint64(dk), low))
				dsts = append(dsts, d, refAdd(d, addrOf(1<<63, lowZero)), refAdd(d, addrOf(1<<63-1, lowOnes)))
			}
		}
		dsts = append(dsts, origin, b.anchor)
		for trial := 0; trial < 40; trial++ {
			n := ringTestNode(71)
			if n.addr != origin {
				t.Fatal("ringTestNode moved; rebuild the band around its address")
			}
			sh := watch(n)
			for _, i := range rng.Perm(len(band))[:2+trial%6] {
				n.addConnection(band[i], ep, nil, nil, nil, churnTypes[rng.Intn(len(churnTypes))])
			}
			if err := tableHolds(n, sh); err != nil {
				t.Fatal(err)
			}
			excludes := []Addr{{}, origin}
			for p := range sh {
				excludes = append(excludes, p)
			}
			for _, dst := range dsts {
				for _, ex := range excludes {
					if got, want := n.nearestConn(dst, ex), sh.nearestLinear(dst, ex); got != want {
						t.Fatalf("anchor %s base %#x trial %d: nearestConn(%s, %s) = %v, oracle %v\npeers %v",
							b.anchor, b.base, trial, dst.FullString(), ex.FullString(), got, want, sh.sorted())
					}
				}
			}
		}
	}
}

// kthNearOnSide walks out from the node's own position in the table; these
// are the positions a random address rarely takes: before every peer (the
// counter-clockwise walk starts by wrapping to the end), after every peer
// (the clockwise walk starts by wrapping to the front), and inside a run of
// peers that share the node's top word (the position is settled past the
// key, on the full address). Near, far, leaf, relay and mixed roles are
// interleaved so the walks filter as they go.
func TestKthNearOnSideAtTableEdges(t *testing.T) {
	const top = 0x0123456789abcdef
	ep := phys.Endpoint{IP: 1, Port: 1}
	peers := []Addr{
		addrOf(top-1, lowOnes), addrOf(top, lowZero), addrOf(top, lowOne), addrOf(top, lowOnes),
		addrOf(top+1, lowZero), addrOf(1<<40, lowHalf), addrOf(1<<63, lowZero), addrOf(^uint64(0)-1<<40, lowHalf),
	}
	roles := [][]ConnType{
		{StructuredNear}, {StructuredNear, Leaf}, {StructuredFar}, {StructuredNear},
		{Relay}, {StructuredNear}, {Leaf, StructuredNear}, {StructuredNear, Shortcut},
	}
	for _, c := range []struct {
		name string
		addr Addr
	}{
		{"below every peer", addrOf(0, lowOne)},
		{"above every peer", addrOf(^uint64(0), lowOnes)},
		{"sharing a peer's top word", addrOf(top, lowHalf)},
	} {
		for drop := -1; drop < len(peers); drop++ {
			n := ringTestNodeAt(79, c.addr)
			sh := watch(n)
			for i, p := range peers {
				for _, r := range roles[i] {
					n.addConnection(p, ep, nil, nil, nil, r)
				}
			}
			if drop >= 0 { // and once with each peer gone
				n.dropConnection(sh[peers[drop]], false, dropTrim)
			}
			if err := kthHolds(n, sh); err != nil {
				t.Fatalf("%s, peer %d dropped: %v", c.name, drop, err)
			}
		}
	}
}

// structuredNode builds a never-started node holding count connections laid
// out like a converged node's: half near neighbors packed around its own
// address on both sides, half far links at Kleinberg offsets.
func structuredNode(count int) (*Node, shadow) {
	n := ringTestNode(73)
	return n, structure(n, count, rand.New(rand.NewSource(int64(count))))
}

// structure gives the never-started node n count connections, laid out as
// structuredNode describes, and returns their shadow.
func structure(n *Node, count int, rng *rand.Rand) shadow {
	sh := watch(n)
	ep := phys.Endpoint{IP: 1, Port: 1}
	for i := 0; len(sh) < count; i++ {
		if i%2 == 0 {
			n.addConnection(n.addr.Offset(KleinbergOffset(rng)), ep, nil, nil, nil, StructuredFar)
			continue
		}
		step := AddrFromFloat(rng.Float64() / 1024)
		if i%4 == 1 {
			step = Zero.Clockwise(step).Clockwise(Zero) // counter-clockwise side
		}
		n.addConnection(n.addr.Offset(step), ep, nil, nil, nil, StructuredNear)
	}
	return sh
}

// TestConnLookupAllocFree: the two reads every routed packet pays — the
// peer lookup and the nearest-connection query — allocate nothing, whether
// the lookup hits, misses on the keys of an occupied arc, or is turned away
// by the occupancy word.
func TestConnLookupAllocFree(t *testing.T) {
	n, sh := structuredNode(32)
	var probes []Addr
	arcMisses := 0
	for arc := 0; arc < 64; arc++ { // one address in every arc: none is held
		a := addrOf(uint64(arc)<<58|0x155, lowHalf)
		if n.occ&(1<<arc) == 0 {
			arcMisses++
		}
		probes = append(probes, a)
	}
	if keyMisses := len(probes) - arcMisses; arcMisses == 0 || keyMisses == 0 {
		t.Fatalf("%d arc misses and %d key misses: both kinds must be measured", arcMisses, keyMisses)
	}
	for p := range sh {
		probes = append(probes, p)
	}
	found := 0
	allocGuard(t, "lookup", 0, func() {
		for _, p := range probes {
			if _, ok := n.lookup(p); ok {
				found++
			}
		}
	})
	if found == 0 || found%len(sh) != 0 {
		t.Fatalf("lookup found %d of %d held peers per pass", found, len(sh))
	}
	allocGuard(t, "nearestConn", 0, func() {
		for i, p := range probes {
			if n.nearestConn(p, probes[(i+1)%len(probes)]) == nil {
				t.Fatal("nearestConn found nobody on a populated ring")
			}
		}
	})
}

var benchSink int

// BenchmarkCmpRingDist times greedy routing's comparator on machine words
// against the byte-wise reference it replaced.
func BenchmarkCmpRingDist(b *testing.B) {
	rng := rand.New(rand.NewSource(83))
	addrs := make([]Addr, 256)
	for i := range addrs {
		addrs[i] = RandomAddr(rng)
	}
	b.Run("words", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += addrs[i%256].CmpRingDist(addrs[(i+1)%256], addrs[(i+2)%256])
		}
	})
	b.Run("bytewise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += refCmpRingDist(addrs[i%256], addrs[(i+1)%256], addrs[(i+2)%256])
		}
	})
}

// BenchmarkNearestConn times the per-hop routing query on a structured
// table against the linear scan over the shadow map.
func BenchmarkNearestConn(b *testing.B) {
	rng := rand.New(rand.NewSource(89))
	dsts := make([]Addr, 256)
	for i := range dsts {
		dsts[i] = RandomAddr(rng)
	}
	for _, size := range []int{12, 64} {
		n, sh := structuredNode(size)
		b.Run(fmt.Sprintf("conns=%d/index", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n.nearestConn(dsts[i%256], dsts[(i+1)%256]) != nil {
					benchSink++
				}
			}
		})
		b.Run(fmt.Sprintf("conns=%d/linear", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if sh.nearestLinear(dsts[i%256], dsts[(i+1)%256]) != nil {
					benchSink++
				}
			}
		})
	}
}

// BenchmarkConnLookup times the peer lookup, hit and miss, against the
// 20-byte-keyed map it retired (the shadow map is one); and, in miss-cold,
// the miss a transit packet's source pays on a ring too large for the
// cache: each lookup goes to the next of 4096 nodes, so whatever it reads
// of the node it reads from memory.
func BenchmarkConnLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(97))
	b.Run("conns=16/miss-cold", func(b *testing.B) {
		host := ringTestNode(1).host
		nodes := make([]*Node, 4096)
		for i := range nodes {
			nodes[i] = NewNode(host, RandomAddr(rng), Config{})
			structure(nodes[i], 16, rng)
		}
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		misses := make([]Addr, 256)
		for i := range misses {
			misses[i] = RandomAddr(rng)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := nodes[i%len(nodes)].lookup(misses[i%len(misses)]); ok {
				benchSink++
			}
		}
	})
	for _, size := range []int{16, 64} {
		n, sh := structuredNode(size)
		hits := make([]Addr, 0, size)
		for _, c := range sh.sorted() {
			hits = append(hits, c.Peer)
		}
		rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		misses := make([]Addr, size)
		for i := range misses {
			misses[i] = RandomAddr(rng)
		}
		for _, probe := range []struct {
			name  string
			addrs []Addr
		}{{"hit", hits}, {"miss", misses}} {
			addrs := probe.addrs
			b.Run(fmt.Sprintf("conns=%d/%s/table", size, probe.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, ok := n.lookup(addrs[i%size]); ok {
						benchSink++
					}
				}
			})
			b.Run(fmt.Sprintf("conns=%d/%s/map", size, probe.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, ok := sh[addrs[i%size]]; ok {
						benchSink++
					}
				}
			})
		}
	}
}
