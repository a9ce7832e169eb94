// Package metrics provides the small statistics toolkit used by every WOW
// experiment: summary statistics, percentiles, fixed-bin histograms and
// time-series capture, matching the presentation style of the paper's
// tables and figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds aggregate statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes summary statistics of xs. An empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	s.Median = Percentile(xs, 50)
	return s
}

// String renders the summary as "mean=… std=… min=… max=… n=…".
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.2f std=%.2f min=%.2f max=%.2f n=%d", s.Mean, s.Std, s.Min, s.Max, s.N)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Histogram is a fixed-width-bin histogram over [Lo, Lo+Width*len(Counts)).
// Samples outside the range are clamped into the first/last bin, mirroring
// how the paper's Figure 8 bins wall-clock times — but no longer silently:
// Outliers reports how many samples were clamped on each side, and String
// appends the counts whenever they are non-zero, so an invisible tail in a
// figure is at least a visible number in the report.
type Histogram struct {
	Lo     float64
	Width  float64
	Counts []int
	total  int
	// under/over count samples clamped into the edge bins from below the
	// range and from at-or-above its top edge.
	under, over int
}

// NewHistogram creates a histogram with bins of the given width starting at
// lo. bins must be positive.
func NewHistogram(lo, width float64, bins int) *Histogram {
	if bins <= 0 {
		panic("metrics: histogram needs at least one bin")
	}
	if width <= 0 {
		panic("metrics: histogram bin width must be positive")
	}
	return &Histogram{Lo: lo, Width: width, Counts: make([]int, bins)}
}

// Add records one sample. Samples outside the histogram's range land in the
// nearest edge bin and are additionally counted as outliers.
func (h *Histogram) Add(x float64) {
	i := int(math.Floor((x - h.Lo) / h.Width))
	if i < 0 {
		i = 0
		h.under++
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
		h.over++
	}
	h.Counts[i]++
	h.total++
}

// Total reports the number of samples recorded.
func (h *Histogram) Total() int { return h.total }

// Outliers reports how many samples fell below the range and at-or-above its
// top edge. Those samples are still counted in the edge bins.
func (h *Histogram) Outliers() (under, over int) { return h.under, h.over }

// Frequencies returns each bin's share of the total (0 when empty).
func (h *Histogram) Frequencies() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}

// String renders an ASCII histogram, one bin per line, followed by an
// outlier line whenever any samples were clamped into the edge bins.
func (h *Histogram) String() string {
	var b strings.Builder
	freqs := h.Frequencies()
	for i, f := range freqs {
		bar := strings.Repeat("#", int(f*60+0.5))
		fmt.Fprintf(&b, "%8.1f |%-60s| %5.1f%%\n", h.BinCenter(i), bar, f*100)
	}
	if h.under > 0 || h.over > 0 {
		fmt.Fprintf(&b, "outliers: under=%d over=%d\n", h.under, h.over)
	}
	return b.String()
}

// LogHistogram is a log-scale histogram: bin i spans [Lo*Base^i, Lo*Base^(i+1)).
// It covers the many-decade spread of overlay route latencies (microseconds
// on one LAN hop through seconds across a relay chain) that a fixed-width
// Histogram cannot resolve. Out-of-range samples clamp into the edge bins
// and are counted as outliers, like Histogram.
type LogHistogram struct {
	Lo     float64
	Base   float64
	Counts []int
	total  int
	// logLo/logBase cache math.Log of the bounds for Add.
	logLo, logBase float64
	under, over    int
}

// NewLogHistogram creates a log-scale histogram whose first bin starts at lo
// with successive bin edges multiplied by base. lo and bins must be positive
// and base must exceed 1.
func NewLogHistogram(lo, base float64, bins int) *LogHistogram {
	if bins <= 0 {
		panic("metrics: histogram needs at least one bin")
	}
	if lo <= 0 {
		panic("metrics: log histogram lower bound must be positive")
	}
	if base <= 1 {
		panic("metrics: log histogram base must exceed 1")
	}
	return &LogHistogram{
		Lo: lo, Base: base, Counts: make([]int, bins),
		logLo: math.Log(lo), logBase: math.Log(base),
	}
}

// Add records one sample. Non-positive samples count as underflow into the
// first bin; samples past the top edge count as overflow into the last.
func (h *LogHistogram) Add(x float64) {
	i := 0
	if x <= 0 {
		h.under++
	} else {
		i = int(math.Floor((math.Log(x) - h.logLo) / h.logBase))
		if i < 0 {
			i = 0
			h.under++
		}
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
			h.over++
		}
	}
	h.Counts[i]++
	h.total++
}

// Total reports the number of samples recorded.
func (h *LogHistogram) Total() int { return h.total }

// Outliers reports how many samples fell below the range (including
// non-positive values) and at-or-above its top edge.
func (h *LogHistogram) Outliers() (under, over int) { return h.under, h.over }

// BinLo returns the lower edge of bin i.
func (h *LogHistogram) BinLo(i int) float64 {
	return h.Lo * math.Pow(h.Base, float64(i))
}

// Frequencies returns each bin's share of the total (0 when empty).
func (h *LogHistogram) Frequencies() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// String renders an ASCII histogram, one bin per line labeled by its lower
// edge, followed by an outlier line whenever any samples were clamped.
func (h *LogHistogram) String() string {
	var b strings.Builder
	freqs := h.Frequencies()
	for i, f := range freqs {
		bar := strings.Repeat("#", int(f*60+0.5))
		fmt.Fprintf(&b, "%12.3g |%-60s| %5.1f%%\n", h.BinLo(i), bar, f*100)
	}
	if h.under > 0 || h.over > 0 {
		fmt.Fprintf(&b, "outliers: under=%d over=%d\n", h.under, h.over)
	}
	return b.String()
}

// Series is an append-only time series of (t, v) points, used to capture
// figure profiles (latency vs. sequence number, bytes vs. time, …).
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// Append records one point.
func (s *Series) Append(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.T) }

// At returns point i.
func (s *Series) At(i int) (t, v float64) { return s.T[i], s.V[i] }

// Family is one package's declared counters: every name the package counts,
// each at a fixed index the package declares as a constant. A Counter made by
// the family (New) keeps one dense cell per name, and the package counts
// with Add — an indexed add, no hashing and nothing allocated on first use.
// The names are read only by the by-name view (Get, Names, String, Merge)
// and by whoever lists the catalog.
type Family struct {
	names []string
	index map[string]int
}

// NewFamily declares a family whose i-th name is names[i]. It panics on an
// empty or repeated name: each name is declared once.
func NewFamily(names ...string) *Family {
	f := &Family{names: names, index: make(map[string]int, len(names))}
	for i, name := range names {
		if name == "" {
			panic(fmt.Sprintf("metrics: counter family leaves index %d unnamed", i))
		}
		if _, dup := f.index[name]; dup {
			panic(fmt.Sprintf("metrics: counter family declares %q twice", name))
		}
		f.index[name] = i
	}
	return f
}

// New returns a Counter with one zero cell for each of the family's names.
func (f *Family) New() Counter {
	return Counter{fam: f, vals: make([]int64, len(f.names))}
}

// Names returns the family's names in declaration (index) order.
func (f *Family) Names() []string { return append([]string(nil), f.names...) }

// lookup returns the index of a family name; a nil family has none.
func (f *Family) lookup(name string) (int, bool) {
	if f == nil {
		return 0, false
	}
	i, ok := f.index[name]
	return i, ok
}

// Counter accumulates named integer counts; handy for protocol statistics
// (packets routed, retries, hole punches, …). A Counter made by a Family
// (Family.New) counts the family's names in dense cells through Add; any
// other name, and every name of a bare Counter, has a cell in one map and is
// counted by name (Inc) or through a Handle resolved once. All of it reads
// as one name-keyed view. A copy of a Counter shares its cells with the
// original.
type Counter struct {
	fam   *Family
	vals  []int64 // fam's cells, indexed as fam's names
	cells map[string]*int64
}

// Add adds delta to the family cell at index i.
func (c *Counter) Add(i int, delta int64) { c.vals[i] += delta }

// Handle is a pre-resolved counter cell: Inc on it is a single pointer
// write, with no string hashing or map probe — the form packet-routing hot
// paths use. The zero Handle is inert and discards increments, so an
// unresolved handle field needs no nil check.
type Handle struct {
	v *int64
}

// Inc adds delta to the handle's cell.
func (h Handle) Inc(delta int64) {
	if h.v != nil {
		*h.v += delta
	}
}

// Handle resolves the named count to a direct cell. A family name's handle
// is its family cell. Any other name's cell is made if necessary, and
// resolving registers that name: it appears in Names and String even while
// still zero. Repeated resolutions of one name share a cell.
func (c *Counter) Handle(name string) Handle { return Handle{v: c.cell(name)} }

// cell returns the named count's cell: a family name's family cell, any
// other name's map cell, made on first use.
func (c *Counter) cell(name string) *int64 {
	if i, ok := c.fam.lookup(name); ok {
		return &c.vals[i]
	}
	cell, ok := c.cells[name]
	if !ok {
		if c.cells == nil {
			c.cells = make(map[string]*int64)
		}
		cell = new(int64)
		c.cells[name] = cell
	}
	return cell
}

// Inc adds delta to the named count.
func (c *Counter) Inc(name string, delta int64) { *c.cell(name) += delta }

// Get returns the named count (0 when never incremented).
func (c *Counter) Get(name string) int64 {
	if i, ok := c.fam.lookup(name); ok {
		return c.vals[i]
	}
	if cell := c.cells[name]; cell != nil {
		return *cell
	}
	return 0
}

// Names returns all counter names in sorted order: every family name whose
// count is non-zero, and every other name that has been counted or resolved
// to a handle, even while still zero.
func (c *Counter) Names() []string {
	out := make([]string, 0, len(c.cells))
	for i, v := range c.vals {
		if v != 0 {
			out = append(out, c.fam.names[i])
		}
	}
	for k := range c.cells {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders "name=value" pairs sorted by name.
func (c *Counter) String() string {
	var b strings.Builder
	for i, n := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, c.Get(n))
	}
	return b.String()
}

// Merge adds every count from other into c — how experiments aggregate
// per-node protocol counters into one fleet-wide view. A family cell that
// is still zero adds nothing, not even its name. Iteration order doesn't
// matter here: Merge only ever adds into c's own cells.
func (c *Counter) Merge(other *Counter) {
	for i, v := range other.vals {
		if v != 0 {
			c.Inc(other.fam.names[i], v)
		}
	}
	for name, cell := range other.cells {
		c.Inc(name, *cell)
	}
}
