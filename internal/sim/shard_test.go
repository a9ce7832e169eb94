package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// splitmix64 is the deterministic hash driving the random workloads: both
// the single-threaded reference and the sharded run derive every delay and
// target from it, so the two executions are the same logical computation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// workload is a randomized actor system: actors log every event they
// execute and schedule follow-ups — some to themselves (any delay), some
// to actors on other shards (delay at least the lookahead). The same
// workload runs on a plain Simulator or on a Sharded engine through the
// scheduler abstraction.
type workload struct {
	seed     uint64
	actors   int
	shards   int
	steps    int
	look     Duration
	logs     [][]logRec // per actor
	schedule func(fromActor, toActor int, when Time, fn func())
	now      func(actor int) Time
}

type logRec struct {
	when  Time
	step  int
	actor int
}

func (w *workload) shardOf(a int) int { return a % w.shards }

// fire logs one step for actor a and schedules its successors.
func (w *workload) fire(a, step int) {
	now := w.now(a)
	w.logs[a] = append(w.logs[a], logRec{when: now, step: step, actor: a})
	if step >= w.steps {
		return
	}
	h := splitmix64(w.seed ^ uint64(a)*0x9E37 ^ uint64(step)*0x85EB)
	// Self follow-up: any strictly positive delay.
	selfDelay := Duration(1+h%1000) * Microsecond
	w.schedule(a, a, now.Add(selfDelay), func() { w.fire(a, step+1) })
	if w.actors > 1 && h%3 == 0 {
		// Cross follow-up: delay bounded below by the lookahead, the
		// same invariant phys guarantees via the WAN latency floor.
		b := (a + 1 + int(h>>32)%(w.actors-1)) % w.actors
		crossDelay := Duration(w.look) + Duration(1+(h>>16)%1000)*Microsecond
		step2 := step + 1
		w.schedule(a, b, now.Add(crossDelay), func() { w.fire(b, step2) })
	}
}

func (w *workload) kickoff() {
	for a := 0; a < w.actors; a++ {
		h := splitmix64(w.seed ^ uint64(a)*0x2545F491)
		start := Time(1+h%5000) * Time(Microsecond)
		a := a
		w.schedule(a, a, start, func() { w.fire(a, 0) })
	}
}

// runSingle executes the workload on one Simulator: the single-threaded
// reference ordering (global timestamp order across all actors).
func runSingle(seed uint64, actors, shards, steps int, look Duration, horizon Time) [][]logRec {
	s := New(int64(seed))
	w := &workload{seed: seed, actors: actors, shards: shards, steps: steps, look: look,
		logs: make([][]logRec, actors)}
	w.schedule = func(_, _ int, when Time, fn func()) { s.At(when, fn) }
	w.now = func(int) Time { return s.Now() }
	w.kickoff()
	s.RunUntil(horizon)
	return w.logs
}

// runSharded executes the same workload on a Sharded engine with the given
// worker count and reports what its windows offered to run in parallel.
func runSharded(seed uint64, actors, shards, steps, workers int, look Duration, horizon Time) ([][]logRec, Parallelism) {
	g := NewSharded(int64(seed), shards, workers)
	defer g.Close()
	g.SetLookahead(look)
	w := &workload{seed: seed, actors: actors, shards: shards, steps: steps, look: look,
		logs: make([][]logRec, actors)}
	w.schedule = func(from, to int, when Time, fn func()) {
		sf, st := w.shardOf(from), w.shardOf(to)
		if sf == st {
			g.Shard(st).At(when, fn)
			return
		}
		g.Send(sf, st, when, func(any) { fn() }, nil)
	}
	w.now = func(actor int) Time { return g.Shard(w.shardOf(actor)).Now() }
	w.kickoff()
	g.RunUntil(horizon)
	return w.logs, g.parallelism()
}

// timesCollide reports whether any two events in the reference run share a
// timestamp. Equal-timestamp events on different shards have no defined
// relative order between a single queue and K queues (both executions are
// individually deterministic); the equivalence property quantifies over
// workloads with distinct timestamps, so colliding seeds are skipped.
func timesCollide(logs [][]logRec) bool {
	seen := make(map[Time]bool)
	for _, l := range logs {
		for _, r := range l {
			if seen[r.when] {
				return true
			}
			seen[r.when] = true
		}
	}
	return false
}

// TestShardedMatchesSingleThreaded is the lookahead-correctness property:
// for random topologies (actor→shard maps) and seeds, sharded execution
// produces exactly the event ordering of a single-threaded run.
func TestShardedMatchesSingleThreaded(t *testing.T) {
	const look = 10 * Millisecond
	const horizon = Time(10 * Second)
	prop := func(seed uint64, actorsRaw, shardsRaw, workersRaw uint8) bool {
		actors := 2 + int(actorsRaw%14)
		shards := 2 + int(shardsRaw%6)
		workers := 1 + int(workersRaw%8)
		single := runSingle(seed, actors, shards, 6, look, horizon)
		if timesCollide(single) {
			return true
		}
		sharded, _ := runSharded(seed, actors, shards, 6, workers, look, horizon)
		return reflect.DeepEqual(single, sharded)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedWorkerCountInvariance pins the stronger half of the
// determinism contract: with ties or without, the (seed, shard count)
// trace and the engine's parallelism counts never depend on how many
// workers execute it, also when the workers outnumber the cores.
func TestShardedWorkerCountInvariance(t *testing.T) {
	const look = 5 * Millisecond
	const horizon = Time(20 * Second)
	check := func(t *testing.T, workerCounts ...int) {
		for _, seed := range []uint64{1, 7, 42, 1234567} {
			ref, refPar := runSharded(seed, 24, 4, 8, 1, look, horizon)
			if refPar.Windows == 0 || refPar.Busiest > refPar.Events {
				t.Fatalf("seed %d: implausible parallelism counts %+v", seed, refPar)
			}
			for _, workers := range workerCounts {
				got, par := runSharded(seed, 24, 4, 8, workers, look, horizon)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("seed %d: workers=%d trace differs from workers=1", seed, workers)
				}
				if par != refPar {
					t.Fatalf("seed %d: workers=%d counts %+v, workers=1 counts %+v", seed, workers, par, refPar)
				}
			}
		}
	}
	check(t, 2, 4, 8)
	t.Run("GOMAXPROCS=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t, 4)
	})
}

// TestShardedSingleShardDelegates checks K=1 is exactly the plain engine:
// same trace, no lookahead required.
func TestShardedSingleShardDelegates(t *testing.T) {
	single := runSingle(99, 8, 1, 6, 10*Millisecond, Time(10*Second))
	g, par := runSharded(99, 8, 1, 6, 1, 10*Millisecond, Time(10*Second))
	if !reflect.DeepEqual(single, g) {
		t.Fatal("single-shard engine trace differs from plain Simulator")
	}
	events := uint64(0)
	for _, l := range single {
		events += uint64(len(l))
	}
	if want := (Parallelism{Windows: 1, Events: events, Busiest: events}); par != want || par.bound() != 1 {
		t.Fatalf("single-shard counts %+v (bound %v), want %+v", par, par.bound(), want)
	}
}

// TestShardedLookaheadViolationPanics: a cross-shard event scheduled
// inside the current window must panic loudly instead of corrupting
// causality.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	g := NewSharded(1, 2, 2)
	defer g.Close()
	g.SetLookahead(10 * Millisecond)
	g.Shard(0).At(Time(Millisecond), func() {
		// 1ms delay < 10ms lookahead: illegal cross-shard send.
		g.Send(0, 1, g.Shard(0).Now().Add(Millisecond), func(any) {}, nil)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	g.RunUntil(Time(Second))
}

// TestShardedCrossTieOrder pins the barrier merge order: two cross-shard
// events landing on one shard at the same timestamp execute in source-
// shard order regardless of emission interleaving.
func TestShardedCrossTieOrder(t *testing.T) {
	for _, workers := range []int{1, 3} {
		g := NewSharded(5, 3, workers)
		g.SetLookahead(Duration(Millisecond))
		var order []int
		when := Time(2 * Millisecond)
		// Shards 2 and 1 both target shard 0 at the same instant.
		g.Shard(2).At(Time(Microsecond), func() {
			g.Send(2, 0, when, func(any) { order = append(order, 2) }, nil)
		})
		g.Shard(1).At(Time(Microsecond), func() {
			g.Send(1, 0, when, func(any) { order = append(order, 1) }, nil)
		})
		g.RunUntil(Time(10 * Millisecond))
		g.Close()
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("workers=%d: cross-shard tie order = %v, want [1 2]", workers, order)
		}
	}
}

// TestShardedSendOutsideRunAtNow: between runs Send schedules directly, and
// an event for the destination's current instant — which goes to that
// shard's now queue — fires after everything already due at that instant,
// whichever home holds it, and before anything scheduled after it.
func TestShardedSendOutsideRunAtNow(t *testing.T) {
	const at = Time(3 * Millisecond)
	for _, k := range []int{1, 4} {
		g := NewSharded(7, k, 2)
		g.SetLookahead(Millisecond)
		to := k - 1
		dst := g.Shard(to)
		var order []int
		note := func(arg any) { order = append(order, arg.(int)) }
		dst.AtArg(at.Add(Millisecond), note, 9) // a later timer with the smallest seq of all
		g.RunUntil(at)
		dst.AtArg(at, note, 1)
		dst.AtArg(0, note, 2) // clamped to the same instant
		g.Send(0, to, dst.Now(), note, 3)
		dst.AtArg(at, note, 4)
		g.RunUntil(at.Add(Second))
		g.Close()
		if !reflect.DeepEqual(order, []int{1, 2, 3, 4, 9}) {
			t.Errorf("K=%d: fired %v, want [1 2 3 4 9]", k, order)
		}
	}

	// One shard is the plain Simulator, where a Stop leaves heap events due
	// at the instant the clock stopped at: they were scheduled first.
	g := NewSharded(7, 1, 1)
	s := g.Shard(0)
	var order []int
	note := func(arg any) { order = append(order, arg.(int)) }
	s.AtArg(at, func(any) { s.Stop() }, nil)
	s.AtArg(at, note, 1)
	g.RunUntil(at)
	if s.Now() != at || s.Pending() != 1 {
		t.Fatalf("stopped at %v with %d pending", s.Now(), s.Pending())
	}
	g.Send(0, 0, s.Now(), note, 2)
	g.RunUntil(at)
	if !reflect.DeepEqual(order, []int{1, 2}) {
		t.Errorf("after Stop: fired %v, want [1 2]", order)
	}
}

// TestMergeStable pins the canonical cross-shard merge order shared by the
// engine's event lanes and the flight recorder: concatenate parts in slice
// order, stable-sort by timestamp — i.e. (time, part index, emission order).
func TestMergeStable(t *testing.T) {
	type ev struct {
		when Time
		tag  string
	}
	when := func(e ev) Time { return e.when }
	parts := [][]ev{
		{{20, "p0a"}, {20, "p0b"}, {50, "p0c"}},
		{{10, "p1a"}, {20, "p1b"}},
		nil,
		{{20, "p3a"}},
	}
	got := MergeStable(parts, when)
	want := []string{"p1a", "p0a", "p0b", "p1b", "p3a", "p0c"}
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d", len(got), len(want))
	}
	for i, tag := range want {
		if got[i].tag != tag {
			t.Errorf("merged[%d] = %s, want %s", i, got[i].tag, tag)
		}
	}
	if MergeStable([][]ev{nil, {}}, when) != nil {
		t.Error("all-empty merge should be nil")
	}
	// Single non-empty part: documented to alias the source (no copy).
	solo := []ev{{3, "x"}, {1, "y"}}
	out := MergeStable([][]ev{nil, solo, nil}, when)
	if len(out) != 2 || out[0].tag != "y" || out[1].tag != "x" {
		t.Fatalf("single-part merge = %+v", out)
	}
	if &out[0] != &solo[0] {
		t.Error("single-part merge no longer aliases its source; update the doc contract")
	}
}

// TestClosedEngineRunUntilPanics is the regression for RunUntil after
// Close: the workers have exited, so the coordinator used to block forever
// handing them the first window. It must panic instead, before and after a
// first run started the pool, and Close must stay callable.
func TestClosedEngineRunUntilPanics(t *testing.T) {
	for _, ran := range []bool{false, true} {
		g := NewSharded(1, 4, 2)
		g.SetLookahead(Millisecond)
		for i := 0; i < 4; i++ {
			g.Shard(i).After(Millisecond, func() {})
		}
		if ran {
			g.RunUntil(Time(Millisecond))
		}
		g.Shard(0).After(Millisecond, func() {})
		g.Close()
		g.Close()

		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			g.RunUntil(Time(Second))
		}()
		select {
		case r := <-got:
			if r != "sim: RunUntil on a closed engine" {
				t.Errorf("ran=%v: RunUntil after Close recovered %v", ran, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ran=%v: RunUntil after Close deadlocked", ran)
		}
	}
}

// runGuarded runs g to t on another goroutine and reports what RunUntil
// panicked with, failing the test if it has not returned within a minute.
func runGuarded(t *testing.T, g *Sharded, until Time) any {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		g.RunUntil(until)
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(time.Minute):
		t.Fatalf("RunUntil(%v) has not returned", until)
		return nil
	}
}

// TestShardedRunUntilNearTimeLimit is the regression for windows whose end
// overflowed: an event due within one lookahead of the last Time, or at it,
// made every window empty and RunUntil spin forever.
func TestShardedRunUntilNearTimeLimit(t *testing.T) {
	for _, at := range []Time{maxTime - 5, maxTime} {
		for _, workers := range []int{1, 2} {
			g := NewSharded(1, 2, workers)
			g.SetLookahead(10 * Millisecond)
			fired := 0
			g.Shard(1).At(at, func() { fired++ })
			g.Shard(0).At(Time(Millisecond), func() {})
			if r := runGuarded(t, g, maxTime); r != nil {
				t.Fatalf("event at %v, workers=%d: RunUntil panicked: %v", at, workers, r)
			}
			if fired != 1 || g.Now() != maxTime || g.Pending() != 0 {
				t.Errorf("event at %v, workers=%d: fired %d times, clock %v, %d pending", at, workers, fired, g.Now(), g.Pending())
			}
			g.Close()
		}
	}
}

// TestShardedStaleClaim holds the barrier's claim to its window: windows
// alternate between one due shard and all K with a worker per shard, so a
// helper still walking one window races the coordinator publishing the
// next. Every event asserts that no other participant is running its shard
// and that it runs within its window. A claim that does not carry the
// window's epoch lets a late helper take a shard of the next window — beside
// the participant that claims it there, or before the count of shards left
// is set — and a claim by Swap can overwrite the next window's mark; either
// way the barrier breaks, and a barrier that never opens fails the test
// after a minute.
func TestShardedStaleClaim(t *testing.T) {
	const k, windows = 8, 4000
	const look = Millisecond
	g := NewSharded(3, k, k)
	defer g.Close()
	g.SetLookahead(look)
	var running [k]atomic.Bool
	var fault atomic.Value
	var ran [k]int
	var sink [k]uint64
	for i := 0; i < k; i++ {
		i, sh := i, g.Shard(i)
		period := 2 * look // due in every other window
		if i == 0 {
			period = look // due in every window
		}
		var beat func(any)
		beat = func(any) {
			if !running[i].CompareAndSwap(false, true) {
				fault.CompareAndSwap(nil, fmt.Sprintf("shard %d run by two participants at %v", i, sh.Now()))
			}
			if sh.Now() > g.last {
				fault.CompareAndSwap(nil, fmt.Sprintf("shard %d ran an event at %v after its window's last instant %v", i, sh.Now(), g.last))
			}
			x := uint64(sh.Now())
			for j := 0; j < 64; j++ {
				x = splitmix64(x)
			}
			sink[i] += x // a little work, so that two runs of one shard overlap
			ran[i]++
			sh.AtArg(sh.Now().Add(period), beat, nil)
			running[i].Store(false)
		}
		sh.AtArg(0, beat, nil)
	}
	if r := runGuarded(t, g, Time(windows-1)*Time(look)); r != nil {
		t.Fatalf("RunUntil panicked: %v", r)
	}
	if f := fault.Load(); f != nil {
		t.Fatal(f)
	}
	for i, n := range ran {
		want := windows / 2
		if i == 0 {
			want = windows
		}
		if n != want {
			t.Errorf("shard %d ran %d events, want %d", i, n, want)
		}
	}
	if par := g.parallelism(); par.Windows != windows || par.Events != windows*(k+1)/2 || par.Busiest != windows || par.bound() != float64(k+1)/2 {
		t.Errorf("counts %+v (bound %v), want %d windows, %d events, busiest %d", par, par.bound(), windows, windows*(k+1)/2, windows)
	}
}

// goroutinesAtMost reports runtime.NumGoroutine once it is at most want,
// or after ten seconds. A goroutine leaves the count a moment after its
// last synchronizing act — here the WaitGroup's Done that Close waits for —
// and read at once the count still held an exiting helper in about one
// run in 300 on two cores, so it yields the processor until the exit is
// through.
func goroutinesAtMost(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(10 * time.Second); n > want && time.Now().Before(deadline); {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestShardedOneWorkerStartsNoGoroutine: with one worker the caller runs
// every shard itself.
func TestShardedOneWorkerStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewSharded(1, 4, 1)
	defer g.Close()
	g.SetLookahead(Millisecond)
	during := -1
	for i := 0; i < 4; i++ {
		g.Shard(i).At(Time(Microsecond), func() { during = runtime.NumGoroutine() })
	}
	g.RunUntil(Time(10 * Millisecond))
	if after := runtime.NumGoroutine(); during > base || after > base {
		t.Fatalf("goroutines: %d before, %d during a window, %d after", base, during, after)
	}
}

// TestShardedCloseWaitsForHelpers: Close returns once the helpers have
// left their loop, whether they still poll for the next window (Close right after
// a run) or have parked.
func TestShardedCloseWaitsForHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, parked := range []bool{false, true} {
		g := NewSharded(1, 4, 4)
		g.SetLookahead(Millisecond)
		for i := 0; i < 4; i++ {
			g.Shard(i).At(Time(Microsecond), func() {})
		}
		g.RunUntil(Time(Millisecond))
		if len(g.helpers) != 3 {
			t.Fatalf("parked=%v: %d helpers started, want 3", parked, len(g.helpers))
		}
		if parked {
			deadline := time.Now().Add(time.Minute)
			for p := range g.helpers {
				for !g.helpers[p].asleep.Load() {
					if time.Now().After(deadline) {
						t.Fatalf("helper %d never parked", p+1)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
		g.Close()
		if n := goroutinesAtMost(base); n > base {
			t.Fatalf("parked=%v: %d goroutines after Close, want %d", parked, n, base)
		}
	}
}

// TestShardedPanicReraised: a panic in an event is re-raised on the caller
// of RunUntil whoever ran the shard. Two shards share one window; the one
// that does not panic waits until the panicking one has started, so each
// is run by its home participant: shard 0 by the coordinator, shard 1 by
// the helper.
func TestShardedPanicReraised(t *testing.T) {
	for _, panicky := range []int{0, 1} {
		g := NewSharded(1, 2, 2)
		g.SetLookahead(Millisecond)
		var started atomic.Bool
		g.Shard(panicky).At(Time(Microsecond), func() {
			started.Store(true)
			panic(fmt.Sprintf("boom on shard %d", panicky))
		})
		g.Shard(1-panicky).At(Time(Microsecond), func() {
			for deadline := time.Now().Add(time.Minute); !started.Load() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		})
		want := fmt.Sprintf("boom on shard %d", panicky)
		if r := runGuarded(t, g, Time(Second)); r != want {
			t.Errorf("shard %d: RunUntil recovered %v, want %q", panicky, r, want)
		}
		if !started.Load() {
			t.Errorf("shard %d: the panicking event never ran", panicky)
		}
		g.Close()
	}
}

// BenchmarkShardWindow times one window of an 8-shard engine — the floor
// scan, the hand-out, the barrier and the lane merge — with one trivial
// event per shard (what the barrier costs on its own) and with 13 per
// shard (about the 106 events of a 3000-router ring's window), at one and
// two workers.
func BenchmarkShardWindow(b *testing.B) {
	const k = 8
	const look = 10 * Millisecond
	for _, perShard := range []int{1, 13} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("events=%d/workers=%d", k*perShard, workers), func(b *testing.B) {
				g := NewSharded(1, k, workers)
				defer g.Close()
				g.SetLookahead(look)
				for i := 0; i < k; i++ {
					sh := g.Shard(i)
					var beat func(any)
					beat = func(any) { sh.AtArg(sh.Now().Add(look), beat, nil) }
					for j := 0; j < perShard; j++ {
						sh.AtArg(Time(j)*Time(Microsecond), beat, nil)
					}
				}
				g.RunUntil(Time(look))
				b.ResetTimer()
				g.RunUntil(g.Now().Add(Duration(b.N) * look))
			})
		}
	}
}
