package brunet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The byte-wise ring arithmetic addr.go ran on before it moved to machine
// words, kept verbatim (renamed only) as the reference the word-wise
// operations are held to: one byte per step, no word seams to get wrong.

func refCmp(a, b Addr) int {
	for i := 0; i < AddrBytes; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

func refAdd(a, b Addr) Addr {
	var out Addr
	carry := 0
	for i := AddrBytes - 1; i >= 0; i-- {
		s := int(a[i]) + int(b[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

func refSub(a, b Addr) Addr {
	var out Addr
	borrow := 0
	for i := AddrBytes - 1; i >= 0; i-- {
		d := int(a[i]) - int(b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

func refRingDist(a, b Addr) Addr {
	cw := refSub(b, a)
	ccw := refSub(a, b)
	if refCmp(cw, ccw) <= 0 {
		return cw
	}
	return ccw
}

func refCmpClockwise(o, a, b Addr) int {
	aWrapped := refCmp(a, o) < 0
	bWrapped := refCmp(b, o) < 0
	switch {
	case aWrapped == bWrapped:
		return refCmp(a, b)
	case aWrapped:
		return 1
	}
	return -1
}

// refTopBitRingDist is the old unexported ringDist: the minimum taken by
// the top-bit test.
func refTopBitRingDist(a, dst Addr) Addr {
	d := refSub(dst, a)
	if d[0] >= 0x80 {
		d = refSub(a, dst)
	}
	return d
}

func refCmpRingDist(dst, a, b Addr) int {
	return refCmp(refTopBitRingDist(a, dst), refTopBitRingDist(b, dst))
}

// refRight is the side test wanted() and neighborAcross() ran before they
// moved to words: x is on o's right when its clockwise distance from o is
// strictly the shorter way round.
func refRight(o, x Addr) bool { return refCmp(refSub(x, o), refSub(o, x)) < 0 }

// refInside is wanted()'s old inside-the-k-th-neighbour test: w strictly
// nearer o than kth, by clockwise distance on the right and by
// counter-clockwise distance on the left.
func refInside(o, w, kth Addr, right bool) bool {
	if right {
		return refCmp(refSub(w, o), refSub(kth, o)) < 0
	}
	return refCmp(refSub(o, w), refSub(o, kth)) < 0
}

// wordsMatchBytes holds every word-wise operation to its reference on one
// triple of addresses, naming the first that differs.
func wordsMatchBytes(o, a, b Addr) string {
	switch {
	case a.Cmp(b) != refCmp(a, b):
		return "Cmp"
	case a.Less(b) != (refCmp(a, b) < 0):
		return "Less"
	case addModRing(a, b) != refAdd(a, b), a.Offset(b) != refAdd(a, b):
		return "addModRing"
	case subModRing(a, b) != refSub(a, b), b.Clockwise(a) != refSub(a, b):
		return "subModRing"
	case a.RingDist(b) != refRingDist(a, b), a.RingDist(b) != refTopBitRingDist(a, b):
		return "RingDist"
	case o.CmpClockwise(a, b) != refCmpClockwise(o, a, b),
		o.CmpClockwise(a, b) != refCmp(refSub(a, o), refSub(b, o)):
		return "CmpClockwise"
	case o.CmpRingDist(a, b) != refCmpRingDist(o, a, b),
		o.CmpRingDist(a, b) != refCmp(refRingDist(a, o), refRingDist(b, o)):
		return "CmpRingDist"
	case distTop64(a, b) != refWord(refRingDist(a, b), 0):
		return "distTop64"
	case o.onRight(&a) != refRight(o, a):
		return "onRight"
	case o.inside(&a, &b, true) != refInside(o, a, b, true),
		o.inside(&a, &b, false) != refInside(o, a, b, false):
		return "inside"
	}
	if hi, mid, lo := words(&a); hi != refWord(a, 0) || mid != refWord(a, 8) ||
		uint64(lo) != refWord(a, 16)>>32 || fromWords(hi, mid, lo) != a {
		return "words"
	}
	return ""
}

// refWord reads the (up to) eight bytes of a from byte i on as a big-endian
// number, zero-padded past the end — one byte per step, like the rest.
func refWord(a Addr, i int) uint64 {
	var v uint64
	for j := i; j < i+8; j++ {
		v <<= 8
		if j < AddrBytes {
			v |= uint64(a[j])
		}
	}
	return v
}

// seamAddrs are addresses built around the word seams (bytes 7|8 and 15|16)
// and the ring's extremes: what a carry, a borrow or a comparison has to
// cross correctly when 160 bits are three words.
func seamAddrs() []Addr {
	at := func(i int, v byte) (a Addr) { a[i] = v; return a }
	fill := func(from, to int, v byte) (a Addr) {
		for i := from; i < to; i++ {
			a[i] = v
		}
		return a
	}
	return []Addr{
		{},                        // 0
		at(19, 1),                 // 1: all-0xFF minus it, 0 minus it
		fill(0, AddrBytes, 0xFF),  // 2^160 − 1
		at(0, 0x80),               // 2^159: the antipode, distance exactly half
		fill(1, AddrBytes, 0xFF),  // 2^152 − 1
		at(16, 1),                 // 2^24: lowest bit pattern of the 32-bit word's top byte
		at(15, 1),                 // 2^32: the low seam, …00|01 00…
		fill(16, AddrBytes, 0xFF), // 2^32 − 1: one below it, …00|FF FF FF FF
		at(7, 1),                  // 2^96: the high seam
		fill(8, AddrBytes, 0xFF),  // 2^96 − 1: one below it
		fill(8, 16, 0xFF),         // the middle word all ones, both neighbours zero
		fill(0, 8, 0xFF),          // the high word all ones
		at(17, 0x5A),              // differs from zero only inside bytes 16–19
		at(19, 0xA5),
	}
}

// TestAddrWordsSeams runs every operation on every triple of seam addresses
// (and seam ± a random address, so the seams are hit with arbitrary low bits).
func TestAddrWordsSeams(t *testing.T) {
	seams := seamAddrs()
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 6; i++ {
		r := RandomAddr(rng)
		for _, s := range seamAddrs() {
			seams = append(seams, refAdd(r, s), refSub(r, s))
		}
		seams = append(seams, r)
	}
	for _, o := range seams[:len(seamAddrs())+8] {
		for _, a := range seams {
			for _, b := range seams {
				if op := wordsMatchBytes(o, a, b); op != "" {
					t.Fatalf("%s differs from the byte-wise reference at o=%s a=%s b=%s",
						op, o.FullString(), a.FullString(), b.FullString())
				}
			}
		}
	}
}

// Property: on random addresses — and on pairs forced equal, antipodal or
// differing only below a seam — every word-wise operation equals its
// byte-wise reference.
func TestQuickAddrWordsMatchBytewise(t *testing.T) {
	var failed string
	f := func(ob, ab, bb [AddrBytes]byte, shape uint8) bool {
		o, a, b := Addr(ob), Addr(ab), Addr(bb)
		switch shape % 8 {
		case 1:
			b = a
		case 2:
			a = o
		case 3: // exactly half the ring from o
			a = refAdd(o, seamAddrs()[3])
		case 4: // a and b differ only in bytes 16–19
			copy(b[:16], a[:16])
		case 5: // … only in bytes 8–19
			copy(b[:8], a[:8])
		case 6: // … only in bytes 0–7
			copy(b[8:], a[8:])
		case 7: // b one past a: every carry chain the low bytes allow
			b = refAdd(a, seamAddrs()[1])
		}
		failed = wordsMatchBytes(o, a, b)
		return failed == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(59))}); err != nil {
		t.Fatalf("%s: %v", failed, err)
	}
}

// Property: the near overlord's two decisions on words — the side of me a
// candidate w lies on (onRight), and whether w lies strictly inside the
// k-th neighbour kth on that side (inside) — are the byte-wise expressions
// wanted() and neighborAcross() computed before, on random addresses and on
// the shapes where a strict comparison decides: w == me, w at the antipode
// and one step either side of it, w sharing me's top word, and kth a
// neighbour on the right or on the left with w equal to it or one step
// either side of it.
func TestQuickRingSideMatchesBytewise(t *testing.T) {
	one, half := seamAddrs()[1], seamAddrs()[3]
	var failed string
	f := func(mb, wb, kb [AddrBytes]byte, shape uint8) bool {
		me, w, kth := Addr(mb), Addr(wb), Addr(kb)
		switch shape % 8 {
		case 1:
			w = me
		case 2:
			w = refAdd(me, half)
		case 3:
			w = refAdd(refAdd(me, half), one)
		case 4:
			w = refSub(refAdd(me, half), one)
		case 5: // the top word of me, any lower words
			copy(w[:8], me[:8])
		case 6: // w on kth or one step either side of it
			kth = w
			switch wb[19] % 3 {
			case 0:
				w = kth
			case 1:
				w = refAdd(kth, one)
			case 2:
				w = refSub(kth, one)
			}
		case 7: // kth a near neighbour: a short way clockwise or counter-clockwise
			var d Addr
			copy(d[8:], kb[8:])
			if kb[0]&1 == 0 {
				kth = refAdd(me, d)
			} else {
				kth = refSub(me, d)
			}
		}
		if me.onRight(&w) != refRight(me, w) {
			failed = "onRight"
			return false
		}
		right := refRight(me, w)
		for _, side := range []bool{right, !right} {
			if me.inside(&w, &kth, side) != refInside(me, w, kth, side) {
				failed = "inside"
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatalf("%s: %v", failed, err)
	}
	// The antipode and me itself are on neither side's right; one step
	// clockwise of me is on the right, one step counter-clockwise is not.
	me := RandomAddr(rand.New(rand.NewSource(67)))
	for _, c := range []struct {
		w     Addr
		right bool
	}{{me, false}, {refAdd(me, half), false}, {refAdd(me, one), true}, {refSub(me, one), false},
		{refSub(refAdd(me, half), one), true}, {refAdd(refAdd(me, half), one), false}} {
		if me.onRight(&c.w) != c.right {
			t.Errorf("onRight(%s) of %s = %v, want %v", c.w.FullString(), me.FullString(), !c.right, c.right)
		}
	}
}
