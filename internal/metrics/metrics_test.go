package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("Std = %v, want %v", s.Std, want)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "mean=2.00") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("percentile of empty sample should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-5, 0, 9.99, 10, 25, 49, 50, 1000} {
		h.Add(x)
	}
	want := []int{3, 1, 1, 0, 3} // clamped below into bin0, above into bin4
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", h.Counts, want)
		}
	}
	if h.total != 8 {
		t.Fatalf("total = %d", h.total)
	}
}

func TestHistogramFrequencies(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if f := h.Frequencies(); f[0] != 0 || f[1] != 0 {
		t.Fatal("empty histogram should have zero frequencies")
	}
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.5)
	f := h.Frequencies()
	if math.Abs(f[0]-1.0/3) > 1e-12 || math.Abs(f[1]-2.0/3) > 1e-12 {
		t.Fatalf("frequencies = %v", f)
	}
}

func TestHistogramBinCenterAndString(t *testing.T) {
	h := NewHistogram(0, 16, 6)
	if h.BinCenter(0) != 8 || h.BinCenter(1) != 24 {
		t.Fatalf("bin centers wrong: %v %v", h.BinCenter(0), h.BinCenter(1))
	}
	h.Add(8)
	if !strings.Contains(h.String(), "%") {
		t.Fatal("String output missing percents")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(0, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "latency"
	s.Append(1, 100)
	s.Append(2, 50)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	tt, v := s.At(1)
	if tt != 2 || v != 50 {
		t.Fatalf("At(1) = %v,%v", tt, v)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Get("x") != 0 {
		t.Fatal("zero counter should read 0")
	}
	c.Inc("b", 2)
	c.Inc("a", 1)
	c.Inc("b", 3)
	if c.Get("b") != 5 {
		t.Fatalf("b = %d", c.Get("b"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if c.String() != "a=1 b=5" {
		t.Fatalf("String = %q", c.String())
	}
}

// Property: mean lies within [min, max] and histogram total equals sample
// count for arbitrary inputs.
func TestQuickSummaryBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		h := NewHistogram(-40000, 1000, 80)
		for _, x := range xs {
			h.Add(x)
		}
		return h.total == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []int8, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterMerge(t *testing.T) {
	var a, b Counter
	a.Inc("x", 2)
	a.Inc("y", 1)
	b.Inc("x", 3)
	b.Inc("z", 5)
	a.Merge(&b)
	if a.Get("x") != 5 || a.Get("y") != 1 || a.Get("z") != 5 {
		t.Fatalf("merge wrong: %s", a.String())
	}
	if b.Get("x") != 3 {
		t.Fatal("merge mutated source")
	}
	var empty Counter
	a.Merge(&empty) // merging a zero-value Counter is a no-op
	if a.Get("x") != 5 {
		t.Fatal("empty merge changed counts")
	}
}

func TestHistogramOutliers(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if u, o := h.under, h.over; u != 0 || o != 0 {
		t.Fatalf("fresh histogram outliers = %d,%d", u, o)
	}
	h.Add(25) // in range: no outlier
	h.Add(-5) // below
	h.Add(-1) // below
	h.Add(50) // at top edge: clamped
	h.Add(1000)
	u, o := h.under, h.over
	if u != 2 || o != 2 {
		t.Fatalf("outliers = %d,%d, want 2,2", u, o)
	}
	// Clamped samples still count in the edge bins and the total.
	if h.Counts[0] != 2 || h.Counts[4] != 2 || h.total != 5 {
		t.Fatalf("counts = %v total = %d", h.Counts, h.total)
	}
	if !strings.Contains(h.String(), "outliers: under=2 over=2") {
		t.Fatalf("String missing outlier line:\n%s", h.String())
	}
	clean := NewHistogram(0, 10, 5)
	clean.Add(25)
	if strings.Contains(clean.String(), "outliers") {
		t.Fatal("outlier line printed with no outliers")
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(1, 10, 4) // bins [1,10) [10,100) [100,1e3) [1e3,1e4)
	for _, x := range []float64{1, 5, 50, 500, 5000, 9999} {
		h.Add(x)
	}
	want := []int{2, 1, 1, 2}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", h.Counts, want)
		}
	}
	if u, o := h.under, h.over; u != 0 || o != 0 {
		t.Fatalf("in-range samples counted as outliers: %d,%d", u, o)
	}
	h.Add(0)   // non-positive: underflow
	h.Add(-3)  // non-positive: underflow
	h.Add(0.5) // below range
	h.Add(1e4) // at top edge
	h.Add(1e6) // far above
	if u, o := h.under, h.over; u != 3 || o != 2 {
		t.Fatalf("outliers = %d,%d, want 3,2", u, o)
	}
	if h.Total() != 11 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.BinLo(0) != 1 || h.BinLo(2) != 100 {
		t.Fatalf("BinLo wrong: %v %v", h.BinLo(0), h.BinLo(2))
	}
	f := h.Frequencies()
	var sum float64
	for _, v := range f {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("frequencies sum to %v", sum)
	}
	if !strings.Contains(h.String(), "outliers: under=3 over=2") {
		t.Fatalf("String missing outlier line:\n%s", h.String())
	}
	for _, f := range []func(){
		func() { NewLogHistogram(1, 2, 0) },
		func() { NewLogHistogram(0, 2, 4) },
		func() { NewLogHistogram(1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestCounterMergeHandles: Merge must fold in counts living in handle
// cells on either side, and Names must interleave map-backed and
// handle-backed names in one sorted order with no duplicates.
func TestCounterMergeHandles(t *testing.T) {
	var a, b Counter
	a.Inc("m", 1)         // by name
	a.Handle("h").Inc(2)  // through a handle
	b.Handle("m").Inc(10) // a handle on a name a counts by name
	b.Inc("h", 20)        // by name on a name a holds a handle to
	b.Handle("z")         // resolved but never incremented
	a.Merge(&b)
	if a.Get("m") != 11 || a.Get("h") != 22 || a.Get("z") != 0 {
		t.Fatalf("merge wrong: %s", a.String())
	}
	names := a.Names()
	want := []string{"h", "m", "z"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	// A name counted both by name and through a handle must be listed once
	// and read as the sum of both.
	var c Counter
	c.Inc("dual", 1)
	c.Handle("dual").Inc(2)
	if got := c.Names(); len(got) != 1 || got[0] != "dual" {
		t.Fatalf("name counted two ways duplicated: %v", got)
	}
	if c.Get("dual") != 3 {
		t.Fatalf("name counted two ways read = %d, want 3", c.Get("dual"))
	}
}

// testFamily is a family for the counter properties below. The "free."
// names stand for what a family counter still keeps by name: dynamic labels
// and counts from outside the package.
var (
	testFamily  = NewFamily("a.one", "b.two", "c.three", "d.four")
	streamNames = []string{"a.one", "b.two", "c.three", "d.four", "free.x", "free.y"}
)

// TestQuickCounterFamilyMatchesFreeForm: a family counter and a bare one fed
// the same stream of (name, delta) agree on every read of the by-name view —
// Get, Names, String — and merge into a bare counter and into another family
// counter alike, whichever way the family counter takes each count (Add,
// Inc by name, a Handle). Deltas are positive, so every name counted is
// non-zero: the one place the two may differ is a family name still at zero,
// which only the bare counter lists.
func TestQuickCounterFamilyMatchesFreeForm(t *testing.T) {
	prop := func(ops []uint16) bool {
		fam, bare := testFamily.New(), Counter{}
		for _, op := range ops {
			name, delta := streamNames[int(op>>2)%len(streamNames)], int64(op>>5)+1
			i, inFamily := testFamily.lookup(name)
			switch {
			case op&3 == 0 && inFamily:
				fam.Add(i, delta)
			case op&3 == 1:
				fam.Handle(name).Inc(delta)
			default:
				fam.Inc(name, delta)
			}
			bare.Inc(name, delta)
		}
		for _, name := range append(streamNames, "never") {
			if fam.Get(name) != bare.Get(name) {
				return false
			}
		}
		if fmt.Sprint(fam.Names()) != fmt.Sprint(bare.Names()) || fam.String() != bare.String() {
			return false
		}
		var fromFam, fromBare Counter
		fromFam.Merge(&fam)
		fromBare.Merge(&bare)
		famFam := testFamily.New()
		famFam.Merge(&fam)
		return fromFam.String() == fromBare.String() && famFam.String() == bare.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// TestCounterFamilyHandleAliasesCell: a Handle on a family name, and a copy
// of the Counter, reach the family cell itself; a family name at zero is
// not listed even once resolved; a family declares each name once.
func TestCounterFamilyHandleAliasesCell(t *testing.T) {
	c := testFamily.New()
	h := c.Handle("b.two")
	h.Inc(2)
	c.Add(1, 3)
	alias := c
	alias.Inc("b.two", 1)
	if got := c.Get("b.two"); got != 6 {
		t.Fatalf("b.two = %d through Handle, Add and a copy's Inc, want 6", got)
	}
	c.Handle("c.three")
	if got := c.String(); got != "b.two=6" {
		t.Fatalf("String = %q, want only the non-zero family name", got)
	}
	for _, names := range [][]string{{"x", "y", "x"}, {"x", ""}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFamily(%q) did not panic", names)
				}
			}()
			NewFamily(names...)
		}()
	}
}

// BenchmarkCounter times one count each way a Counter takes it: Add on a
// family cell, Inc through a resolved Handle, and Inc by name, on a family
// name and on a free-form one.
func BenchmarkCounter(b *testing.B) {
	c := testFamily.New()
	c.Inc("free.x", 1)
	b.Run("Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Add(1, 1)
		}
	})
	b.Run("Handle.Inc", func(b *testing.B) {
		h := c.Handle("b.two")
		for i := 0; i < b.N; i++ {
			h.Inc(1)
		}
	})
	b.Run("Inc/family", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc("b.two", 1)
		}
	})
	b.Run("Inc/free", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc("free.x", 1)
		}
	})
}

// TestShardedConcurrentWrites exercises the sharded counters' ownership
// contract under the race detector: every shard writes only its own
// Counter from its own goroutine (mixing map Incs and pre-resolved
// handles), and the merged view read afterwards is exact.
func TestShardedConcurrentWrites(t *testing.T) {
	const shards, perShard = 8, 10000
	s := NewSharded(shards)
	hot := s.Handles("hot")
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Shard(i)
			for j := 0; j < perShard; j++ {
				hot[i].Inc(1)
				c.Inc("cold", 2)
			}
			c.Inc(fmt.Sprintf("shard%d", i), int64(i))
		}()
	}
	wg.Wait()
	m := s.Merged()
	if got := m.Get("hot"); got != shards*perShard {
		t.Errorf("hot = %d, want %d", got, shards*perShard)
	}
	if got := m.Get("cold"); got != shards*perShard*2 {
		t.Errorf("cold = %d, want %d", got, shards*perShard*2)
	}
	for i := 0; i < shards; i++ {
		if got := m.Get(fmt.Sprintf("shard%d", i)); got != int64(i) {
			t.Errorf("shard%d = %d, want %d", i, got, i)
		}
	}
}
