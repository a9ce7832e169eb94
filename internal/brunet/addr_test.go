package brunet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wow/internal/phys"
)

// RandomAddr draws a uniformly random address from rng.
func RandomAddr(rng *rand.Rand) Addr {
	var a Addr
	for i := 0; i < AddrBytes; i += 4 {
		v := rng.Uint32()
		a[i] = byte(v >> 24)
		a[i+1] = byte(v >> 16)
		a[i+2] = byte(v >> 8)
		a[i+3] = byte(v)
	}
	return a
}

// RingDist returns the bidirectional ring distance between a and b: the
// smaller of the clockwise and counter-clockwise distances, the metric
// greedy routing minimizes (§IV-A). Routing itself compares distances with
// CmpRingDist and never stores one.
func (a Addr) RingDist(b Addr) Addr { return fromWords(ringDistWords(&a, &b)) }

// Between reports whether x lies strictly within the clockwise arc from a
// to b. The arc from a to a is the whole ring minus a itself.
func Between(x, a, b Addr) bool {
	if x == a || x == b {
		return false
	}
	return a.CmpClockwise(x, b) < 0 || a == b
}

// Fmt renders a short diagnostic form "addr(offset-fraction)" for ring
// dumps in test failures.
func (a Addr) Fmt() string { return fmt.Sprintf("%s(%.4f)", a.String(), a.Float64()) }

// UDPURI builds a brunet.udp URI for an endpoint.
func UDPURI(ep phys.Endpoint) URI { return URI{Transport: "udp", EP: ep} }

func addrFromByte(b byte) Addr {
	var a Addr
	a[0] = b
	return a
}

func TestAddrStringForms(t *testing.T) {
	a := AddrFromString("node1")
	if len(a.String()) != 8 {
		t.Fatalf("short form %q", a.String())
	}
	if len(a.FullString()) != 40 {
		t.Fatalf("full form %q", a.FullString())
	}
	if a.IsZero() {
		t.Fatal("hashed address is zero")
	}
	if !Zero.IsZero() {
		t.Fatal("Zero not zero")
	}
	if a.Fmt() == "" {
		t.Fatal("Fmt empty")
	}
}

func TestAddrFromStringDeterministic(t *testing.T) {
	if AddrFromString("x") != AddrFromString("x") {
		t.Fatal("not deterministic")
	}
	if AddrFromString("x") == AddrFromString("y") {
		t.Fatal("collision on distinct inputs")
	}
}

func TestCmp(t *testing.T) {
	a, b := addrFromByte(1), addrFromByte(2)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp wrong")
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("Less wrong")
	}
}

func TestClockwiseWraps(t *testing.T) {
	a, b := addrFromByte(250), addrFromByte(2)
	// cw distance from 250<<152 to 2<<152 wraps: (2-250) mod 256 = 8 in
	// the top byte.
	d := a.Clockwise(b)
	if d[0] != 8 {
		t.Fatalf("wrapped clockwise top byte = %d, want 8", d[0])
	}
	for _, rest := range d[1:] {
		if rest != 0 {
			t.Fatal("low bytes nonzero")
		}
	}
}

func TestRingDistSymmetricSmall(t *testing.T) {
	a, b := addrFromByte(10), addrFromByte(20)
	if a.RingDist(b) != b.RingDist(a) {
		t.Fatal("RingDist not symmetric")
	}
	if a.RingDist(a) != Zero {
		t.Fatal("self distance nonzero")
	}
	if a.RingDist(b)[0] != 10 {
		t.Fatalf("dist = %v", a.RingDist(b))
	}
}

func TestBetween(t *testing.T) {
	a, m, b := addrFromByte(10), addrFromByte(15), addrFromByte(20)
	if !Between(m, a, b) {
		t.Fatal("15 not between 10 and 20")
	}
	if Between(a, a, b) || Between(b, a, b) {
		t.Fatal("endpoints reported between")
	}
	// Wrapping arc 250 -> 5 contains 0.
	if !Between(Zero, addrFromByte(250), addrFromByte(5)) {
		t.Fatal("0 not in wrapped arc (250, 5)")
	}
	if Between(addrFromByte(100), addrFromByte(250), addrFromByte(5)) {
		t.Fatal("100 in wrapped arc (250, 5)")
	}
	// Degenerate whole-ring arc.
	if !Between(m, a, a) {
		t.Fatal("whole-ring arc excludes interior point")
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a := RandomAddr(rng)
		off := RandomAddr(rng)
		b := a.Offset(off)
		if a.Clockwise(b) != off {
			t.Fatalf("Clockwise(Offset) != off: a=%v off=%v", a, off)
		}
	}
}

func TestFloatRoundTrip(t *testing.T) {
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		a := AddrFromFloat(u)
		got := a.Float64()
		if diff := got - u; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("roundtrip %v -> %v", u, got)
		}
	}
	if AddrFromFloat(-1) != Zero {
		t.Fatal("negative not clamped")
	}
	if AddrFromFloat(2).Float64() >= 1 {
		t.Fatal(">1 not clamped")
	}
}

func TestKleinbergOffsetRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	half := AddrFromFloat(0.5)
	for i := 0; i < 1000; i++ {
		off := KleinbergOffset(rng)
		if off == Zero {
			t.Fatal("zero offset")
		}
		if half.Cmp(off) < 0 {
			t.Fatalf("offset beyond half ring: %v", off.Float64())
		}
	}
}

func TestKleinbergOffsetSpreadsScales(t *testing.T) {
	// The harmonic distribution should produce offsets across many
	// orders of magnitude: count how many distinct power-of-two scales
	// appear.
	rng := rand.New(rand.NewSource(3))
	scales := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		u := KleinbergOffset(rng).Float64()
		e := 0
		for u < 0.5 && e < 60 {
			u *= 2
			e++
		}
		scales[e] = true
	}
	if len(scales) < 25 {
		t.Fatalf("only %d scales sampled; distribution not heavy-tailed", len(scales))
	}
}

// Property: (a + b) - b == a (mod 2^160).
func TestQuickAddSubInverse(t *testing.T) {
	f := func(ab, bb [AddrBytes]byte) bool {
		a, b := Addr(ab), Addr(bb)
		return subModRing(addModRing(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: is agrees with == — on random pairs, equal pairs, pairs that
// share their top word or their first 16 bytes, and pairs one bit apart in
// any byte (zero among them) — and IsZero with == Zero.
func TestQuickAddrIsMatchesEquality(t *testing.T) {
	f := func(ab, bb [AddrBytes]byte, shape uint8, flip uint8) bool {
		a, b := Addr(ab), Addr(bb)
		switch shape % 6 {
		case 1:
			b = a
		case 2: // the same top word
			copy(b[:8], a[:8])
		case 3: // the same first 16 bytes
			copy(b[:16], a[:16])
		case 4: // one bit apart
			b = a
			b[int(flip)%AddrBytes] ^= 1 << (flip >> 5)
		case 5: // zero, and one bit off zero
			a, b = Zero, Zero
			b[int(flip)%AddrBytes] ^= 1 << (flip >> 5)
		}
		eq := a == b
		return a.is(&b) == eq && b.is(&a) == eq && a.is(&a) &&
			a.IsZero() == (a == Zero) && b.IsZero() == (b == Zero)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

// Property: RingDist(a,b) == RingDist(b,a) and is at most half the ring.
func TestQuickRingDistSymmetric(t *testing.T) {
	var halfPlus Addr
	halfPlus[0] = 0x80
	f := func(ab, bb [AddrBytes]byte) bool {
		a, b := Addr(ab), Addr(bb)
		d := a.RingDist(b)
		if d != b.RingDist(a) {
			return false
		}
		// d <= 2^159 (half the ring).
		return d.Cmp(halfPlus) <= 0 || d == halfPlus
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for ring distance.
func TestQuickRingDistTriangle(t *testing.T) {
	f := func(ab, bb, cb [AddrBytes]byte) bool {
		a, b, c := Addr(ab), Addr(bb), Addr(cb)
		ab2 := a.RingDist(b)
		bc := b.RingDist(c)
		ac := a.RingDist(c)
		sum := addModRing(ab2, bc)
		// If the sum overflowed half the ring, the inequality holds
		// trivially; otherwise compare.
		if sum.Cmp(ab2) < 0 { // wrapped past 2^160: treat as huge
			return true
		}
		return ac.Cmp(sum) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Between(x,a,b) and Between(x,b,a) are mutually exclusive for
// distinct a,b,x (x is on exactly one arc).
func TestQuickBetweenExclusive(t *testing.T) {
	f := func(xb, ab, bb [AddrBytes]byte) bool {
		x, a, b := Addr(xb), Addr(ab), Addr(bb)
		if x == a || x == b || a == b {
			return true
		}
		cw := Between(x, a, b)
		ccw := Between(x, b, a)
		return cw != ccw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestURISetOrderAndDedup(t *testing.T) {
	var s uriSet
	u1 := URI{Transport: "udp"}
	if s.add(URI{}) {
		t.Fatal("zero URI added")
	}
	u1.EP.Port = 1
	u2 := u1
	u2.EP.Port = 2
	if !s.add(u1) || !s.add(u2) || s.add(u1) {
		t.Fatal("set semantics wrong")
	}
	all := s.list
	if len(all) != 2 || all[0] != u1 || all[1] != u2 {
		t.Fatalf("order lost: %v", all)
	}
}

func TestConnTypeStrings(t *testing.T) {
	for typ, want := range map[ConnType]string{
		Leaf: "leaf", StructuredNear: "structured.near",
		StructuredFar: "structured.far", Shortcut: "shortcut",
	} {
		if typ.String() != want {
			t.Errorf("%d = %q", typ, typ.String())
		}
	}
	if ConnType(9).String() != "ConnType(9)" {
		t.Error("unknown type")
	}
}

// Property: CmpClockwise agrees with materializing both clockwise
// distances — including the boundary cases where a or b equals the origin.
func TestQuickCmpClockwiseMatchesMaterialized(t *testing.T) {
	f := func(ob, ab, bb [AddrBytes]byte, collide uint8) bool {
		o, a, b := Addr(ob), Addr(ab), Addr(bb)
		switch collide % 4 { // force the degenerate alignments often
		case 1:
			a = o
		case 2:
			b = o
		case 3:
			b = a
		}
		return o.CmpClockwise(a, b) == o.Clockwise(a).Cmp(o.Clockwise(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: CmpRingDist agrees with materializing both bidirectional ring
// distances — including exact matches and antipodal (2^159) alignments.
func TestQuickCmpRingDistMatchesMaterialized(t *testing.T) {
	var half Addr
	half[0] = 0x80
	f := func(db, ab, bb [AddrBytes]byte, collide uint8) bool {
		d, a, b := Addr(db), Addr(ab), Addr(bb)
		switch collide % 5 { // force the boundary alignments often
		case 1:
			a = d
		case 2:
			b = d
		case 3:
			b = a
		case 4:
			a = d.Offset(half) // exactly half the ring away
		}
		return d.CmpRingDist(a, b) == a.RingDist(d).Cmp(b.RingDist(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
