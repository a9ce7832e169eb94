package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestStatsHelpers(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got := minOf(xs); got != 1 {
		t.Errorf("minOf = %v, want 1", got)
	}
	if got := argMedian(xs); got != 2 {
		t.Errorf("argMedian = %v, want 2", got)
	}
	if got := argMedian([]float64{4, 1, 3, 2}); got != 3 {
		t.Errorf("argMedian of four = %v, want 3 (the lower middle)", got)
	}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(xs, 25); got != 3 {
		t.Errorf("p25 = %v, want 3", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("p50 of two = %v, want 1.5", got)
	}
	if got := percentile(xs, 99); math.Abs(got-8.92) > 1e-9 {
		t.Errorf("p99 = %v, want 8.92", got)
	}
	if xs[0] != 9 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if !math.IsNaN(minOf(nil)) || !math.IsNaN(median(nil)) || argMedian(nil) != -1 {
		t.Errorf("empty inputs must give NaN / -1")
	}
	// (median-min)/min: 1,1,2,4 → median 1.5 → 0.5.
	if got := spread([]float64{4, 1, 2, 1}); got != 0.5 {
		t.Errorf("spread = %v, want 0.5", got)
	}
	if got := relDiff(100, 101); math.Abs(got-1.0/101) > 1e-12 {
		t.Errorf("relDiff = %v", got)
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Errorf("ratio wrong")
	}
}

// TestQuartilesMatchPython pins quartiles against values computed with
// Python's statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.9, 3.0, 3.3, 2.95, 3.05, 3.2, 3.02, 2.98, 3.4}, 2.9725, 3.225},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1, 2, 3}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "setup", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "timed", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "join", Start: 30, End: 50},
		{ID: 5, Parent: 3, Name: "join", Start: 45, End: 70},  // overlaps its sibling
		{ID: 6, Parent: 3, Name: "late", Start: 85, End: 120}, // runs past its parent
	}
	selfTimes(spans)
	want := map[int]int64{
		1: 100 - 20 - 60, // children cover [10,30) and [30,90)
		2: 20,
		3: 60 - 20 - 20 - 5, // [30,50) + [50,70) + [85,90)
		4: 20,
		5: 25,
		6: 35,
	}
	for _, sp := range spans {
		if sp.Self != want[sp.ID] {
			t.Errorf("span %d (%s) self = %d, want %d", sp.ID, sp.Name, sp.Self, want[sp.ID])
		}
	}
}

func TestSpanRecorder(t *testing.T) {
	var off *spanRec
	off.setRep(3)
	off.begin("x").end() // a nil recorder records nothing and must not panic

	r := newSpanRec()
	run := r.begin("run")
	r.setRep(0)
	rep := r.begin("rep")
	inner := r.begin("setup")
	_ = inner // left open: closing the parent closes it
	rep.endWith(7, map[string]float64{"sim.events": 42})
	r.setRep(-1)
	run.end()
	if len(r.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(r.spans))
	}
	got := r.spans
	if got[0].Parent != 0 || got[1].Parent != got[0].ID || got[2].Parent != got[1].ID {
		t.Errorf("parents wrong: %+v", got)
	}
	if got[0].Rep != -1 || got[1].Rep != 0 || got[2].Rep != 0 {
		t.Errorf("repetition ids wrong: %+v", got)
	}
	if got[2].End == 0 || got[2].End > got[1].End {
		t.Errorf("inner span not closed with its parent: %+v", got[2])
	}
	if got[1].N != 7 || got[1].Counts["sim.events"] != 42 {
		t.Errorf("endWith lost its payload: %+v", got[1])
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.jsonl")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("span file has %d lines, want 3", len(lines))
	}
	var first span
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Name != "run" {
		t.Errorf("first line = %q (%v)", lines[0], err)
	}
}

// TestCalibKernel checks that the calibration kernel does the same work on
// every call path — two instances stay in lockstep — and allocates nothing.
func TestCalibKernel(t *testing.T) {
	a, err := newCalib()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newCalib()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a.run()
		b.run()
	}
	if a.sink != b.sink || a.x != b.x || len(a.heap) != calibDepth {
		t.Errorf("kernel instances diverged: sink %d vs %d, heap %d", a.sink, b.sink, len(a.heap))
	}
	if n := testing.AllocsPerRun(5, func() { a.run() }); n != 0 {
		t.Errorf("kernel call allocates %v times", n)
	}
}

// TestStopwatchLeavesCalibrationOut checks the arithmetic that keeps the
// kernel's own time out of the phases it is interleaved with.
func TestStopwatchLeavesCalibrationOut(t *testing.T) {
	cal, err := newCalib()
	if err != nil {
		t.Fatal(err)
	}
	x := &rep{cal: cal}
	x.beginPhase()
	w := x.watch()
	before := x.calNs
	x.calibrate()
	x.calibrate()
	inside := x.calNs - before
	total := float64(time.Since(w.t0))
	if got := w.ns(); got < 0 || got > total-inside+1e6 {
		t.Errorf("stopwatch read %.0f ns of %.0f with %.0f ns of calibration inside", got, total, inside)
	}
	slow, slowMed := x.endPhase()
	if len(x.calCalls) != 4 || slow <= 0 || slowMed <= 0 {
		t.Errorf("phase saw %d calibration calls, slowness %v by the mean, %v by the median call", len(x.calCalls), slow, slowMed)
	}
}

func TestCheckIdenticalNamesTheRepetition(t *testing.T) {
	mk := func(id int, events float64) *rep {
		return &rep{id: id, opNs: []float64{1}, mallocs: 1e6, attempted: 10,
			delta: map[string]float64{"sim.events": events}}
	}
	if err := checkIdentical([]*rep{mk(0, 5), mk(1, 5), mk(2, 5)}); err != nil {
		t.Errorf("identical repetitions rejected: %v", err)
	}
	err := checkIdentical([]*rep{mk(0, 5), mk(1, 5), mk(2, 6)})
	if err == nil || !strings.Contains(err.Error(), "repetition 2") || !strings.Contains(err.Error(), "sim.events") {
		t.Errorf("divergence not reported by repetition and count: %v", err)
	}
	a, b := mk(0, 5), mk(1, 5)
	b.mallocs = 1e6 * (1 + 5e-5) // inside the tolerance
	if err := checkIdentical([]*rep{a, b}); err != nil {
		t.Errorf("malloc jitter inside tolerance rejected: %v", err)
	}
	b.mallocs = 1e6 * 1.01
	if err := checkIdentical([]*rep{a, b}); err == nil && !raceBuild {
		t.Errorf("1%% malloc divergence accepted")
	}
}

// issueBounds are the bounds the issue fixes: a tenth on host times, a
// hundredth on counts, and "any drop is a regression" on what is exact per
// seed (written 1e-6: smaller than one failed operation, not a literal 0).
var issueBounds = map[string]float64{
	"setup_s": 0.10, "wall_s": 0.10, "cpu_s": 0.10, "op_ns_p50": 0.10,
	"allocs_per_op": 0.01, "alloc_bytes_per_op": 0.01, "heap_bytes_per_node": 0.01, "sim_hops_mean": 0.01,
	"ok_frac": 1e-6, "op_samples": 1e-6,
}

// TestCatalogMatchesBenchmarkJSON keeps the contract file and the program
// from drifting apart.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %+v", i, doc.Workloads[i], w)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end metric %d: %+v vs %+v", i, d, m)
		}
		if want, ok := issueBounds[m.name]; !ok || m.bound != want {
			t.Errorf("%s: bound %v, the issue fixes %v", m.name, m.bound, want)
		}
		if m.name == "setup_s" {
			sawSetup = m.unit == "s" && m.better == "lower"
			for _, o := range endToEnd {
				if o.bound > m.bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.name, o.bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer metric %d: %+v vs %+v", i, d, m)
		}
		if seen[m.name] || len(m.name) > 64 || len(m.unit) > 16 {
			t.Errorf("per-layer metric %q: duplicate or over-long name/unit", m.name)
		}
		seen[m.name] = true
	}
}

// zeroToday lists per-layer metrics that are legitimately zero on every
// smoke run: allocation counts the hot paths already drove to zero, and
// failure counters of a healthy overlay.
var zeroToday = map[string]bool{
	"sim.atarg_allocs": true, "phys.send_deliver_allocs": true, "phys.lost_wire": true,
	"natsim.translate_allocs": true, "brunet.sendto_allocs": true, "brunet.forward_allocs": true,
	"brunet.false_suspect": true, "ipop.misrouted": true, "vip.tcp_rto": true, "vip.tcp_fast_retransmit": true,
	"vip.icmp_timeout":  true,
	"harness.gc_cycles": true, "harness.gc_pause_ms": true,
}

// TestSmokeWorkloads runs a 64-node traced smoke of every workload and
// checks that every named metric is emitted and finite, that the
// end-to-end ones are non-zero, and that every per-layer metric is
// non-zero on at least one workload.
func TestSmokeWorkloads(t *testing.T) {
	drills, err := runDrills(nil)
	if err != nil {
		t.Fatal(err)
	}
	cached := func(*spanRec) (map[string]float64, error) { return drills, nil }
	nonZero := map[string]bool{}
	for _, w := range workloadDefs {
		o := options{workload: w.name, seed: 1, seconds: 1, trace: true, reps: 2, check: true, small: true,
			spanFile: filepath.Join(t.TempDir(), w.name+".jsonl")}
		res, e, err := measure(o, cached)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if e.Reps != 2 || e.Seed != 1 || e.GoVersion == "" || e.Cores < 1 {
			t.Errorf("%s: environment stamp incomplete: %+v", w.name, e)
		}
		for _, m := range endToEnd {
			v, ok := res.e2e[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
				t.Errorf("%s: end-to-end metric %s = %v (emitted %v)", w.name, m.name, v, ok)
			}
		}
		if res.e2e["ok_frac"] != 1 {
			t.Errorf("%s: ok_frac = %v, want 1", w.name, res.e2e["ok_frac"])
		}
		for _, m := range perLayer {
			v, ok := res.layer[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (emitted %v)", w.name, m.name, v, ok)
			}
			if v != 0 {
				nonZero[m.name] = true
			}
		}
		if res.layer["harness.counts_identical"] != 1 {
			t.Errorf("%s: repetitions did not repeat their counts", w.name)
		}
		data, err := os.ReadFile(o.spanFile)
		if err != nil {
			t.Fatalf("%s: span file: %v", w.name, err)
		}
		for _, name := range []string{`"name":"run"`, `"name":"rep"`, `"name":"setup"`, `"name":"timed"`, `"name":"probe"`, `"name":"teardown"`} {
			if !strings.Contains(string(data), name) {
				t.Errorf("%s: span file lacks a %s span", w.name, name)
			}
		}
	}
	for _, m := range perLayer {
		if !nonZero[m.name] && !zeroToday[m.name] {
			t.Errorf("per-layer metric %s is zero on every workload", m.name)
		}
	}
}
