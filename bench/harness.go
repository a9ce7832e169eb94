package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// scenario is one repetition's world: a fresh overlay. The harness measures
// around its three calls; the scenario itself only drives the stack through
// public functions, and calls x.calibrate() between segments of its set-up
// and timed phases.
type scenario interface {
	// setup is the untimed preparation (fabric construction, and for
	// workloads whose timed phase runs on a live overlay, its boot).
	setup(x *rep) error
	// timed is the measured phase. It appends one host-ns sample per op to
	// x.opNs and may record host times of its parts with x.timing.
	timed(x *rep) error
	// after runs with the overlay still live, once the heap has been
	// measured: probe sweep, output checks, checked-operation counts.
	after(x *rep) error
	// counters snapshots every public per-layer counter the workload
	// exposes; the harness differences two snapshots around timed.
	counters() map[string]float64
	// members is the number of overlay nodes heap is divided by.
	members() int
	// close stops anything the scenario started (engine workers, the
	// fault injector). It is called on every path, possibly twice.
	close()
}

// calibRefNs is what one step of the calibration kernel took on the quiet
// 2-core box this benchmark was built on. A phase's slowness is its
// kernel calls' ns per step over this; dividing by it expresses every host
// time at that reference speed, whatever phase the machine was in.
const calibRefNs = 550.0

// rep is what one repetition measured.
type rep struct {
	id  int
	sp  *spanRec // nil when tracing is off
	cal *calib

	// Host seconds as measured, calibration calls left out.
	setupS, wallS, cpuS float64
	// setupSlow and slow are the machine's slowness during set-up and
	// during the timed phase: the calibration kernel's mean ns per step
	// there over calibRefNs. A phase's time is a sum, and stalls land in it
	// and in the kernel's calls alike, so the mean is its yardstick.
	// slowMed is the timed phase's slowness by the kernel's median call:
	// the yardstick of figures stalls do not reach — the median op, and
	// process CPU time, which the guest does not charge for stolen time.
	setupSlow, slow, slowMed float64
	opNs                     []float64
	mallocs                  float64
	allocBytes               float64
	heapBytes                float64
	gcCycles                 float64
	gcPauseMs                float64

	// attempted/failed count the workload's checked operations.
	attempted, failed int
	// wrong lists outputs that were not what they must be (an unroutable
	// ring node, a transfer that lost bytes): -check fails the run on any.
	wrong []string
	// hopsFwd/hopsDel are route.forwarded and route.delivered deltas over
	// the workload's probe sweep.
	hopsFwd, hopsDel float64
	// delta holds counter deltas over the timed phase.
	delta map[string]float64
	// phase holds per-repetition figures the scenario produced itself, by
	// per-layer metric name; host times among them are at reference speed.
	phase map[string]float64
	// times holds raw host times of parts of the timed phase; the harness
	// moves them to phase, at reference speed, when the phase ends.
	times map[string]float64
	// pendingMax is the deepest event queue seen at an op boundary.
	pendingMax float64
	// nodes is the overlay's member count.
	nodes int

	// calNs sums, and calCalls lists, the calibration calls of the phase
	// in progress.
	calNs    float64
	calCalls []float64
}

// calibrate runs the calibration kernel once. Scenarios call it between
// segments of a phase (never inside a timed op), so the kernel samples the
// machine states the phase itself ran in.
func (x *rep) calibrate() {
	s := x.sp.begin("calib")
	ns := x.cal.run()
	x.calNs += ns
	x.calCalls = append(x.calCalls, ns)
	s.end()
}

// stopwatch times a stretch of a phase, leaving out the calibration calls
// made inside it.
type stopwatch struct {
	x    *rep
	t0   time.Time
	cal0 float64
}

func (x *rep) watch() stopwatch { return stopwatch{x: x, t0: time.Now(), cal0: x.calNs} }

func (w stopwatch) ns() float64 { return float64(time.Since(w.t0)) - (w.x.calNs - w.cal0) }

// beginPhase resets the calibration accumulators and takes the phase's
// first sample; endPhase takes its last and returns the phase's slowness
// by the kernel's mean and by its median call.
func (x *rep) beginPhase() {
	x.calNs, x.calCalls = 0, x.calCalls[:0]
	x.calibrate()
}

func (x *rep) endPhase() (mean, med float64) {
	x.calibrate()
	const ref = calibSteps * calibRefNs
	return x.calNs / float64(len(x.calCalls)) / ref, median(x.calCalls) / ref
}

// timing records the raw host seconds (or ns) of a part of the timed phase
// under a per-layer metric name.
func (x *rep) timing(name string, v float64) { x.times[name] = v }

func (x *rep) notePending(n int) {
	if float64(n) > x.pendingMax {
		x.pendingMax = float64(n)
	}
}

// check counts one checked operation and whether it succeeded.
func (x *rep) check(ok bool) {
	x.attempted++
	if !ok {
		x.failed++
	}
}

// mustf counts one checked operation whose failure is a wrong output, not
// just a lost one.
func (x *rep) mustf(ok bool, format string, args ...any) {
	x.check(ok)
	if !ok && len(x.wrong) < 8 {
		x.wrong = append(x.wrong, fmt.Sprintf(format, args...))
	}
}

// wallRef, cpuRef, setupRef and opRef are the repetition's host times at
// reference speed.
func (x *rep) wallRef() float64  { return x.wallS / x.slow }
func (x *rep) cpuRef() float64   { return x.cpuS / x.slowMed }
func (x *rep) setupRef() float64 { return x.setupS / x.setupSlow }
func (x *rep) opRef() float64    { return median(x.opNs) / x.slowMed }

// cpuSeconds is process user+sys time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRep executes one repetition: GC, set up, GC, time, measure the heap,
// probe and check, tear down.
func runRep(id int, sc scenario, sp *spanRec, cal *calib) (*rep, error) {
	x := &rep{id: id, sp: sp, cal: cal, phase: make(map[string]float64), times: make(map[string]float64)}
	sp.setRep(id)
	defer sp.setRep(-1)
	whole := sp.begin("rep")
	defer whole.end()
	defer sc.close()

	runtime.GC()
	var m0, m1, m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m0)

	s := sp.begin("setup")
	x.beginPhase()
	w := x.watch()
	if err := sc.setup(x); err != nil {
		return nil, fmt.Errorf("rep %d setup: %w", id, err)
	}
	x.setupS = w.ns() / 1e9
	x.setupSlow, _ = x.endPhase()
	s.end()

	// Start the timed phase from a collected heap so the collector's
	// pacing inside it does not depend on what set-up left behind.
	runtime.GC()
	c0 := sc.counters()
	runtime.ReadMemStats(&m1)
	s = sp.begin("timed")
	x.beginPhase()
	cpu0 := cpuSeconds()
	w = x.watch()
	if err := sc.timed(x); err != nil {
		return nil, fmt.Errorf("rep %d timed: %w", id, err)
	}
	x.wallS = w.ns() / 1e9
	// The kernel is single-threaded and CPU-bound: its CPU time is its
	// wall time.
	x.cpuS = cpuSeconds() - cpu0 - (x.calNs-w.cal0)/1e9
	x.slow, x.slowMed = x.endPhase()
	runtime.ReadMemStats(&m2)
	c1 := sc.counters()
	x.delta = make(map[string]float64, len(c1))
	for k, v := range c1 {
		x.delta[k] = v - c0[k]
	}
	s.endWith(len(x.opNs), x.delta)
	for k, v := range x.times {
		x.phase[k] = v / x.slow
	}
	x.mallocs = float64(m2.Mallocs - m1.Mallocs)
	x.allocBytes = float64(m2.TotalAlloc - m1.TotalAlloc)
	x.gcCycles = float64(m2.NumGC - m1.NumGC)
	x.gcPauseMs = float64(m2.PauseTotalNs-m1.PauseTotalNs) / 1e6

	// Live heap of the overlay: collected, still referenced by sc, less
	// what the process held before this repetition built anything.
	runtime.GC()
	runtime.ReadMemStats(&m3)
	x.heapBytes = float64(m3.HeapAlloc) - float64(m0.HeapAlloc)
	x.nodes = sc.members()

	s = sp.begin("probe")
	err := sc.after(x)
	s.end()
	if err != nil {
		return nil, fmt.Errorf("rep %d: %w", id, err)
	}
	runtime.KeepAlive(sc)
	td := sp.begin("teardown")
	sc.close()
	td.end()
	return x, nil
}

// exactCounts are the counts that must repeat exactly across repetitions:
// the simulated work is a pure function of the seed.
var exactCounts = []string{"sim.events", "brunet.route_forwarded", "brunet.route_delivered", "phys.delivered"}

// checkIdentical compares every repetition against the first and reports
// the first divergence by repetition id.
func checkIdentical(reps []*rep) error {
	if len(reps) < 2 {
		return nil
	}
	a := reps[0]
	for _, b := range reps[1:] {
		for _, k := range exactCounts {
			if a.delta[k] != b.delta[k] {
				return fmt.Errorf("repetition %d diverged from repetition %d: %s %.0f vs %.0f", b.id, a.id, k, b.delta[k], a.delta[k])
			}
		}
		if a.hopsFwd != b.hopsFwd || a.hopsDel != b.hopsDel {
			return fmt.Errorf("repetition %d diverged from repetition %d: probe sweep forwarded/delivered %.0f/%.0f vs %.0f/%.0f",
				b.id, a.id, b.hopsFwd, b.hopsDel, a.hopsFwd, a.hopsDel)
		}
		if a.attempted != b.attempted || a.failed != b.failed {
			return fmt.Errorf("repetition %d diverged from repetition %d: checked ops %d/%d failed vs %d/%d",
				b.id, a.id, b.failed, b.attempted, a.failed, a.attempted)
		}
		if len(a.opNs) != len(b.opNs) {
			return fmt.Errorf("repetition %d diverged from repetition %d: %d ops vs %d", b.id, a.id, len(b.opNs), len(a.opNs))
		}
		if d := relDiff(a.mallocs, b.mallocs); !raceBuild && d > allocTolerance && math.Abs(a.mallocs-b.mallocs) > allocSlack {
			return fmt.Errorf("repetition %d diverged from repetition %d: mallocs %.0f vs %.0f (%.2e > %.0e)",
				b.id, a.id, b.mallocs, a.mallocs, d, allocTolerance)
		}
	}
	return nil
}

// allocTolerance is how far malloc counts may differ between repetitions
// of identical simulated work: the runtime's own bookkeeping (GC workers,
// profiling, map growth order) allocates a handful of objects on its own.
// allocSlack is that handful, which exceeds the relative tolerance only at
// smoke sizes.
const (
	allocTolerance = 1e-4
	allocSlack     = 64
)

// result aggregates the repetitions of one run into named metrics.
type result struct {
	reps []*rep
	// mid is the repetition whose timed phase took the median time at
	// reference speed; counts and per-layer figures come from it.
	mid *rep
	// identical reports that every repetition repeated the counts.
	identical bool
	e2e       map[string]float64
	layer     map[string]float64
}

func field(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, x := range reps {
		out[i] = f(x)
	}
	return out
}

// aggregate turns repetitions into the end-to-end metrics. Every host time
// is first brought to reference speed by its own repetition's calibration
// calls and then the median over repetitions is taken: once the machine's
// slow phases are divided out what is left errs both ways, so the median,
// not the minimum, is the steady figure (see README, "Why calibrated
// medians"). Allocation and heap figures, which repeat to four digits,
// are medians too; counts come from the median repetition.
func aggregate(reps []*rep) *result {
	walls := field(reps, (*rep).wallRef)
	mid := reps[argMedian(walls)]
	ops := float64(len(mid.opNs))
	r := &result{reps: reps, mid: mid}
	r.e2e = map[string]float64{
		"setup_s":             median(field(reps, (*rep).setupRef)),
		"wall_s":              median(walls),
		"cpu_s":               median(field(reps, (*rep).cpuRef)),
		"op_ns_p50":           median(field(reps, (*rep).opRef)),
		"allocs_per_op":       median(field(reps, func(x *rep) float64 { return x.mallocs })) / ops,
		"alloc_bytes_per_op":  median(field(reps, func(x *rep) float64 { return x.allocBytes })) / ops,
		"heap_bytes_per_node": median(field(reps, func(x *rep) float64 { return x.heapBytes })) / float64(mid.nodes),
		"sim_hops_mean":       ratio(mid.hopsFwd, mid.hopsDel),
		"ok_frac":             1 - ratio(float64(mid.failed), float64(mid.attempted)),
		"op_samples":          ops,
	}
	return r
}

// finite reports whether every metric is a finite number.
func finite(m map[string]float64) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", k)
		}
	}
	return nil
}
