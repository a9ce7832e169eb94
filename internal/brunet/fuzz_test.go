package brunet

import (
	"math/rand"
	"testing"

	"wow/internal/phys"
)

// FuzzRingMath holds the word-wise 160-bit ring arithmetic to its byte-wise
// reference (addr_oracle_test.go) and to the modular invariants, on
// arbitrary byte patterns. The seed corpus sits on the word seams.
func FuzzRingMath(f *testing.F) {
	f.Add(make([]byte, 40), false)
	f.Add([]byte("0123456789012345678901234567890123456789"), true)
	seams := seamAddrs()
	for i, a := range seams {
		for _, b := range []Addr{a, seams[(i+1)%len(seams)], seams[1], seams[3]} {
			raw := append(append(append([]byte(nil), a[:]...), b[:]...), seams[(i+5)%len(seams)][:]...)
			f.Add(raw, i%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, flip bool) {
		if len(raw) < 2*AddrBytes {
			return
		}
		var a, b Addr
		copy(a[:], raw[:AddrBytes])
		copy(b[:], raw[AddrBytes:2*AddrBytes])
		if flip {
			a, b = b, a
		}
		// The origin for the three-address comparators: the next 20 bytes
		// when the input has them, else a value derived from the pair.
		o := refSub(a, b)
		if len(raw) >= 3*AddrBytes {
			copy(o[:], raw[2*AddrBytes:3*AddrBytes])
		}
		// The last two put an address at the other's antipode, where the
		// side test's strict comparison decides.
		anti := refAdd(a, seamAddrs()[3])
		for _, tri := range [][3]Addr{{o, a, b}, {a, b, o}, {b, o, a}, {a, a, b}, {o, b, b}, {a, anti, b}, {a, b, anti}} {
			if op := wordsMatchBytes(tri[0], tri[1], tri[2]); op != "" {
				t.Fatalf("%s differs from the byte-wise reference at o=%s a=%s b=%s",
					op, tri[0].FullString(), tri[1].FullString(), tri[2].FullString())
			}
		}
		if subModRing(addModRing(a, b), b) != a {
			t.Fatal("add/sub not inverse")
		}
		if a.RingDist(b) != b.RingDist(a) {
			t.Fatal("RingDist asymmetric")
		}
		if a != b {
			cw := Between(a.Offset(AddrFromFloat(0)), a, b) // a itself: never between
			if cw {
				t.Fatal("endpoint reported between")
			}
		}
		_ = a.Fmt()
		_ = a.Float64()
	})
}

// FuzzNearestConn drives one node's connection table through operations
// decoded from the input, two bytes each — a peer from a 16-address
// universe and what to do to it, then a role — and holds the ring reads to
// their linear oracles after the last one: nearestConn for every address of
// the universe, the node's own and each with the same key but other low
// bits, under every exclusion; kthNearOnSide for every k on both sides.
// Half the universe shares a top word with another member or the node,
// and two members sit at the ends of the address space, so equal-key runs
// and the wrap-around are reached by a few bytes.
func FuzzNearestConn(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 1, 0x01, 1, 0x02, 2, 0x03, 3, 0x0C, 1, 0x0D, 0, 0x0E, 4, 0x0F, 1})
	f.Add([]byte{0x06, 1, 0x07, 1, 0x0C, 1, 0x0D, 1, 0x2C, 1, 0x3D, 0, 0x08, 2, 0x00, 3})
	f.Add([]byte{0x10, 4, 0x11, 0, 0x12, 1, 0x13, 2, 0x24, 1, 0x38, 0, 0x09, 1, 0x0A, 1})
	origin := AddrFromString("ring-test-origin") // ringTestNode's address
	rng := rand.New(rand.NewSource(101))
	var universe [16]Addr
	for i := range 6 {
		universe[i] = RandomAddr(rng)
	}
	universe[6] = addrOf(0, lowOne)
	universe[7] = addrOf(^uint64(0), lowOnes)
	for i := range 4 { // 8–11 share a top word with 0–3
		universe[8+i] = addrOf(refWord(universe[i], 0), lows[i])
	}
	universe[12] = addrOf(refWord(origin, 0), lowZero) // 12, 13 share the node's
	universe[13] = addrOf(refWord(origin, 0), lowOnes)
	universe[14] = refAdd(origin, addrOf(1<<63, lowZero)) // the node's antipode
	universe[15] = addrOf(refWord(universe[14], 0), lowOnes)
	dsts := []Addr{origin, Zero}
	for _, a := range universe {
		other := a
		other[AddrBytes-1] ^= 0x5A
		dsts = append(dsts, a, other)
	}
	ep := phys.Endpoint{IP: 1, Port: 1}
	f.Fuzz(func(t *testing.T, ops []byte) {
		n := ringTestNode(103)
		sh := watch(n)
		for i := 0; i+1 < len(ops); i += 2 {
			peer := universe[ops[i]&15]
			typ := ConnType(int(ops[i+1]) % numConnTypes)
			switch (ops[i] >> 4) % 4 {
			case 0, 1:
				n.addConnection(peer, ep, nil, nil, nil, typ)
			case 2:
				if c, ok := sh[peer]; ok {
					n.dropConnRole(c, typ, dropTrim)
				}
			case 3:
				if c, ok := sh[peer]; ok {
					n.dropConnection(c, false, dropTrim)
				}
			}
		}
		for _, dst := range dsts {
			for _, ex := range append([]Addr{Zero}, universe[:]...) {
				if got, want := n.nearestConn(dst, ex), sh.nearestLinear(dst, ex); got != want {
					t.Fatalf("nearestConn(%s, %s) = %v, oracle %v\npeers %v", dst.FullString(), ex.FullString(), got, want, sh.sorted())
				}
			}
		}
		if err := kthHolds(n, sh); err != nil {
			t.Fatalf("%v\npeers %v", err, sh.sorted())
		}
	})
}
