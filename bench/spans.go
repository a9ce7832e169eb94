package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer boundary. Spans
// are recorded only by the benchmark's own files (outside-in): the program
// under test is not instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Rep    int    `json:"rep"`    // repetition id, -1 outside any repetition
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the recorder started
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part its children cover;
	// filled in by selfTimes.
	Self int64 `json:"self_ns"`
	// N is how many calls the span covers when it batches several (the
	// 200k sends of ring_route are recorded a thousand to a span).
	N int `json:"n,omitempty"`
	// Counts are public counter deltas read at the span's boundaries.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// spanRec keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay one nil check per boundary.
type spanRec struct {
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
	rep   int
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now(), rep: -1} }

// spanRef names an open span; the zero value (from a nil recorder) is
// inert.
type spanRef struct {
	r   *spanRec
	idx int
}

func (r *spanRec) setRep(rep int) {
	if r != nil {
		r.rep = rep
	}
}

// begin opens a span under the innermost open one.
func (r *spanRec) begin(name string) spanRef {
	if r == nil {
		return spanRef{}
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{
		ID: idx + 1, Parent: parent, Rep: r.rep, Name: name,
		Start: int64(time.Since(r.t0)),
	})
	r.open = append(r.open, idx)
	return spanRef{r: r, idx: idx}
}

// end closes the span (and any span left open inside it).
func (s spanRef) end() { s.endWith(0, nil) }

// endWith closes the span, recording how many calls it covered and the
// counter deltas read at its boundaries.
func (s spanRef) endWith(n int, counts map[string]float64) {
	if s.r == nil {
		return
	}
	now := int64(time.Since(s.r.t0))
	for len(s.r.open) > 0 {
		top := s.r.open[len(s.r.open)-1]
		s.r.open = s.r.open[:len(s.r.open)-1]
		s.r.spans[top].End = now
		if top == s.idx {
			break
		}
	}
	s.r.spans[s.idx].N = n
	s.r.spans[s.idx].Counts = counts
}

// selfTimes fills Self on every span: duration minus the union of the
// intervals its direct children cover, clipped to the span itself.
func selfTimes(spans []span) {
	children := make(map[int][]int, len(spans))
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], i)
	}
	for i := range spans {
		sp := &spans[i]
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := sp.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > sp.End {
				hi = sp.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		sp.Self = (sp.End - sp.Start) - covered
	}
}

// write renders the spans as JSON lines, one span per line.
func (r *spanRec) write(path string) error {
	selfTimes(r.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
