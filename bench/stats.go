package main

import (
	"math"
	"sort"
)

// minOf returns the smallest value of xs, or NaN for an empty slice.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// argMedian returns the index of the median value of xs — the lower of
// the two middle ones when their number is even — or -1 when empty.
func argMedian(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(xs)-1)/2]
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, without reordering xs. NaN when
// empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is (median-min)/min: how far the typical repetition sat above the
// undisturbed one. 0 for a single sample.
func spread(xs []float64) float64 {
	m := minOf(xs)
	if len(xs) == 0 || m <= 0 {
		return 0
	}
	return (median(xs) - m) / m
}

// relDiff is |a-b| relative to the larger magnitude; 0 when both are 0.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// ratio is a/b, or 0 when b is 0 — per-layer metrics may legitimately be
// undefined on a workload that never exercises the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so spreads
// computed here match the ones the driver computes. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// iqrShare is the interquartile range of xs as a share of their median; 0
// with fewer than two values.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}
