package brunet

import "testing"

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
		for _, tri := range [][3]Addr{{o, a, b}, {a, b, o}, {b, o, a}, {a, a, b}, {o, b, b}} {
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
