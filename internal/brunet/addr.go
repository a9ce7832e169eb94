// Package brunet implements the structured peer-to-peer overlay at the core
// of WOW, following the Brunet protocol suite described in §IV of the
// paper: a ring of nodes ordered by 160-bit addresses, greedy routing over
// structured near and far connections, a connection protocol (Connect-To-Me
// requests routed over the overlay), a linking protocol (direct handshakes
// that try a peer's URIs one by one, punching holes through NATs), and
// adaptive shortcut connections driven by traffic inspection.
package brunet

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"math/rand"
)

// AddrBytes is the size of a Brunet address: 160 bits.
const AddrBytes = 20

// Addr is a 160-bit Brunet P2P address. Nodes are ordered around a ring by
// these addresses; all routing metrics derive from ring distance.
type Addr [AddrBytes]byte

// Zero is the all-zero address; used as "unset".
var Zero Addr

// IsZero reports whether a is the unset address, on words as is does
// (a.is(&Zero) would exceed the inlining budget).
func (a Addr) IsZero() bool {
	hi, mid, lo := words(&a)
	return hi == 0 && mid == 0 && lo == 0
}

// String renders the first 8 hex digits, enough to identify nodes in logs.
func (a Addr) String() string { return hex.EncodeToString(a[:4]) }

// FullString renders all 40 hex digits.
func (a Addr) FullString() string { return hex.EncodeToString(a[:]) }

// AddrFromString derives a deterministic address by hashing s with SHA-1.
// WOW uses it to map virtual IPs to P2P addresses so that a migrated VM
// keeps its overlay identity.
func AddrFromString(s string) Addr {
	return Addr(sha1.Sum([]byte(s)))
}

// words loads a as three big-endian machine words — bits 159..96, 95..32
// and 31..0 — the form all ring arithmetic below computes on. Addr itself
// stays a byte array: it is a map key, a hash input and a wire field, and
// [20]byte is 20 bytes where three words would pad to 24.
func words(a *Addr) (hi, mid uint64, lo uint32) {
	return binary.BigEndian.Uint64(a[0:8]), binary.BigEndian.Uint64(a[8:16]), binary.BigEndian.Uint32(a[16:20])
}

// is reports *a == *b on three words. The compiler's == on a [20]byte is
// a call to runtime.memequal; the hop's equality tests use this instead.
func (a *Addr) is(b *Addr) bool {
	ah, am, al := words(a)
	bh, bm, bl := words(b)
	return ah == bh && am == bm && al == bl
}

// fromWords is the inverse of words.
func fromWords(hi, mid uint64, lo uint32) (a Addr) {
	binary.BigEndian.PutUint64(a[0:8], hi)
	binary.BigEndian.PutUint64(a[8:16], mid)
	binary.BigEndian.PutUint32(a[16:20], lo)
	return a
}

// subWords returns (a - b) mod 2^160 in words.
func subWords(a, b *Addr) (hi, mid uint64, lo uint32) {
	ah, am, al := words(a)
	bh, bm, bl := words(b)
	lo, borrow32 := bits.Sub32(al, bl, 0)
	mid, borrow := bits.Sub64(am, bm, uint64(borrow32))
	hi, _ = bits.Sub64(ah, bh, borrow)
	return hi, mid, lo
}

// ringDistWords returns the bidirectional ring distance between a and b in
// words: the clockwise distance, or its ring complement when the top bit
// says it is 2^159 or more (the two sum to 2^160, so the other way round
// is then no longer).
func ringDistWords(a, b *Addr) (hi, mid uint64, lo uint32) {
	hi, mid, lo = subWords(b, a)
	if hi>>63 != 0 {
		hi, mid, lo = subWords(a, b)
	}
	return hi, mid, lo
}

// cmpWords three-way-compares two 160-bit values given in words.
func cmpWords(ah, am uint64, al uint32, bh, bm uint64, bl uint32) int {
	switch {
	case ah != bh:
		if ah < bh {
			return -1
		}
		return 1
	case am != bm:
		if am < bm {
			return -1
		}
		return 1
	case al != bl:
		if al < bl {
			return -1
		}
		return 1
	}
	return 0
}

// Cmp compares addresses as 160-bit big-endian unsigned integers,
// returning -1, 0 or 1.
func (a Addr) Cmp(b Addr) int {
	ah, am, al := words(&a)
	bh, bm, bl := words(&b)
	return cmpWords(ah, am, al, bh, bm, bl)
}

// Less reports a < b in address order.
func (a Addr) Less(b Addr) bool { return a.Cmp(b) < 0 }

// addModRing returns (a + b) mod 2^160.
func addModRing(a, b Addr) Addr {
	ah, am, al := words(&a)
	bh, bm, bl := words(&b)
	lo := uint64(al) + uint64(bl)
	mid, carry := bits.Add64(am, bm, lo>>32)
	hi, _ := bits.Add64(ah, bh, carry)
	return fromWords(hi, mid, uint32(lo))
}

// subModRing returns (a - b) mod 2^160.
func subModRing(a, b Addr) Addr { return fromWords(subWords(&a, &b)) }

// Clockwise returns the clockwise (increasing-address) ring distance from a
// to b: (b - a) mod 2^160.
func (a Addr) Clockwise(b Addr) Addr { return subModRing(b, a) }

// CmpClockwise three-way-compares the clockwise distances from origin o to
// a and to b — the comparison `o.Clockwise(a).Cmp(o.Clockwise(b))` without
// materializing either distance. Since (x−o) mod 2^160 wraps exactly when
// x < o, the distances order by case analysis on which side of o each
// address sits, with no subtraction at all.
func (o Addr) CmpClockwise(a, b Addr) int {
	aWrapped := a.Cmp(o) < 0
	bWrapped := b.Cmp(o) < 0
	switch {
	case aWrapped == bWrapped:
		return a.Cmp(b)
	case aWrapped:
		return 1
	}
	return -1
}

// onRight reports whether x lies on o's right: its clockwise distance from
// o is the shorter way round, strictly — `o.Clockwise(x).Cmp(x.Clockwise(o))
// < 0` on the words of one subtraction. The two distances sum to 2^160, so
// the clockwise one is the shorter exactly when it is non-zero and below
// 2^159; x == o and the antipode, where the two are equal, are not on the
// right.
func (o *Addr) onRight(x *Addr) bool {
	hi, mid, lo := subWords(x, o)
	return hi>>63 == 0 && hi|mid|uint64(lo) != 0
}

// inside reports whether w lies strictly nearer o than kth on the given
// side: clockwise distances compared on the right, counter-clockwise ones
// on the left — `o.Clockwise(w).Cmp(o.Clockwise(kth)) < 0` and
// `w.Clockwise(o).Cmp(kth.Clockwise(o)) < 0` on words, neither distance
// stored as an address.
func (o *Addr) inside(w, kth *Addr, right bool) bool {
	var wh, wm, kh, km uint64
	var wl, kl uint32
	if right {
		wh, wm, wl = subWords(w, o)
		kh, km, kl = subWords(kth, o)
	} else {
		wh, wm, wl = subWords(o, w)
		kh, km, kl = subWords(o, kth)
	}
	return cmpWords(wh, wm, wl, kh, km, kl) < 0
}

// CmpRingDist three-way-compares the bidirectional ring distances from dst
// to a and to b — `a.RingDist(dst).Cmp(b.RingDist(dst))` on six machine
// words, neither distance ever stored as an address. Greedy routing's inner
// loop runs on this comparator.
func (dst Addr) CmpRingDist(a, b Addr) int {
	ah, am, al := ringDistWords(&a, &dst)
	bh, bm, bl := ringDistWords(&b, &dst)
	return cmpWords(ah, am, al, bh, bm, bl)
}

// Offset returns a + offset on the ring.
func (a Addr) Offset(offset Addr) Addr { return addModRing(a, offset) }

// Float64 maps the address to [0, 1) with ~52 bits of precision; used by
// the Kleinberg far-connection sampler.
func (a Addr) Float64() float64 {
	return float64(binary.BigEndian.Uint64(a[:8])) / math.Exp2(64)
}

// AddrFromFloat maps u in [0, 1) to an address (inverse of Float64, with
// the low 96 bits zero).
func AddrFromFloat(u float64) Addr {
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return fromWords(uint64(u*math.Exp2(64)), 0, 0)
}

// KleinbergOffset samples a clockwise ring offset with probability density
// proportional to 1/d, the small-world distribution of the paper's
// reference [37] that yields O((1/k)·log²n) routing. Offsets span
// [2^-b, 1/2) of the ring, with b chosen so the smallest offsets are still
// beyond immediate neighbors in networks of realistic size.
func KleinbergOffset(rng *rand.Rand) Addr {
	const minExp = -40.0 // 2^-40 of the ring: far beyond near neighbors
	const maxExp = -1.0  // half the ring
	e := minExp + rng.Float64()*(maxExp-minExp)
	return AddrFromFloat(math.Exp2(e))
}
