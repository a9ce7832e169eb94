package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

// laneCase is one randomized barrier: what the destination shard already
// holds, what the source shards buffered for it during the window, and what
// gets scheduled on it after the merge. Timestamps come from a handful of
// values so that ties — within a lane, across lanes, against queued events
// and against later ones — are the norm, and lanes are not sorted.
type laneCase struct {
	queued []Time   // on the destination before the window
	lanes  [][]Time // per source shard, in emission order
	later  []Time   // scheduled on the destination after the barrier
}

func randomLaneCase(rng *rand.Rand) laneCase {
	times := func(n int) []Time {
		out := make([]Time, n)
		for i := range out {
			out[i] = Time(100 + rng.Intn(6)) // six timestamps: collisions everywhere
		}
		return out
	}
	c := laneCase{queued: times(rng.Intn(12)), later: times(rng.Intn(8))}
	c.lanes = make([][]Time, 2+rng.Intn(7))
	for i := range c.lanes {
		c.lanes[i] = times(rng.Intn(10))
	}
	return c
}

// popOrder fills dst with the case's queued events, merges the lanes with
// merge, schedules the later events and returns the ids in pop order.
// Event ids: queued 0.., lane entries 1000*(1+source)+emission, later 900...
func (c laneCase) popOrder(dst *Simulator, merge func(lanes [][]crossEvent)) []int {
	var order []int
	note := func(arg any) { order = append(order, arg.(int)) }
	for i, when := range c.queued {
		dst.AtArg(when, note, i)
	}
	lanes := make([][]crossEvent, len(c.lanes))
	for from, lane := range c.lanes {
		for i, when := range lane {
			lanes[from] = append(lanes[from], crossEvent{when: when, fn: note, arg: 1000*(1+from) + i})
		}
	}
	merge(lanes)
	for i, when := range c.later {
		dst.AtArg(when, note, 900+i)
	}
	dst.Run()
	return order
}

// Property: draining the lanes straight into the destination queue in
// (source shard, emission) order pops in the same order as the canonical
// merge — MergeStable over the lanes, then AtArg in merged order — which is
// the path the engine took before and stays here as the oracle.
func TestQuickLaneDrainMatchesMergeStable(t *testing.T) {
	f := func(seed int64) bool {
		c := randomLaneCase(rand.New(rand.NewSource(seed)))
		k := len(c.lanes)

		// The engine under test: shard 0 is the destination, every shard
		// (the destination included) is a source.
		g := NewSharded(1, k, 1)
		got := c.popOrder(g.shards[0], func(lanes [][]crossEvent) {
			for from := range lanes {
				g.lanes[from*k+0] = lanes[from]
			}
			g.mergeLanes()
		})
		for _, lane := range g.lanes {
			if len(lane) != 0 {
				return false
			}
		}

		oracle := New(1)
		want := c.popOrder(oracle, func(lanes [][]crossEvent) {
			for _, e := range MergeStable(lanes, func(e crossEvent) Time { return e.when }) {
				oracle.AtArg(e.when, e.fn, e.arg)
			}
		})

		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(53))}); err != nil {
		t.Fatal(err)
	}
}

func nop(any) {}

// crossSendWindow returns one barrier's worth of work on a K-shard engine
// as RunUntil performs it: every shard buffers per cross-shard Sends to
// each of its two ring neighbors, the barrier drains the lanes, and the
// destinations execute what arrived (which returns the pooled events).
func crossSendWindow(g *Sharded, per int) func() {
	k := len(g.shards)
	return func() {
		at := g.Now().Add(g.lookahead)
		g.inWindow, g.last = true, at-1
		for from := 0; from < k; from++ {
			for i := 0; i < per; i++ {
				g.Send(from, (from+1)%k, at, nop, nil)
				g.Send(from, (from+k-1)%k, at, nop, nil)
			}
		}
		g.inWindow = false
		g.mergeLanes()
		for _, s := range g.shards {
			s.RunUntil(at)
		}
	}
}

// TestAllocFreeLaneDrain is the barrier's allocation guard: once lanes,
// queues and event pools have grown to a window's size, buffering a
// window's cross-shard sends, draining them and running them allocates
// nothing.
func TestAllocFreeLaneDrain(t *testing.T) {
	g := NewSharded(1, 8, 1)
	g.SetLookahead(10 * Millisecond)
	window := crossSendWindow(g, 16)
	for i := 0; i < 8; i++ {
		window()
	}
	before := g.Processed()
	avg := testing.AllocsPerRun(100, window)
	if g.Processed() == before {
		t.Fatal("windows delivered nothing; measurement would be vacuous")
	}
	if raceEnabled {
		t.Logf("allocs/window under -race: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per warmed K=8 window = %.2f, want 0", avg)
	}
}

// embeddedTicks is an owner that embeds its ticker, the way brunet's
// overlords do: armed by StartTicker, fired through a package-level function.
type embeddedTicks struct {
	ticker Ticker
	at     []Time
}

func embeddedTickFired(o any) {
	e := o.(*embeddedTicks)
	e.at = append(e.at, e.ticker.s.Now())
}

// TestAllocFreeTicker guards the closure-free ticker: a tick's reschedule
// draws its jitter and arms through AtArg without allocating, whether Tick
// made the ticker or its owner embeds it (StartTicker). The two draw the same
// intervals from the same seed: Tick is StartTicker on a ticker of its own.
func TestAllocFreeTicker(t *testing.T) {
	s := New(1)
	at := make([]Time, 0, 2048)
	tk := s.Tick(Second, 100*Millisecond, func() { at = append(at, s.Now()) })
	defer tk.Stop()
	s.RunFor(10 * Second)
	at = at[:0]
	avg := testing.AllocsPerRun(100, func() { s.RunFor(10 * Second) })
	if len(at) < 500 {
		t.Fatalf("ticker fired %d times", len(at))
	}

	es := New(1)
	e := &embeddedTicks{at: make([]Time, 0, 2048)}
	es.StartTicker(&e.ticker, Second, 100*Millisecond, nil, embeddedTickFired, e)
	defer e.ticker.Stop()
	es.RunFor(10 * Second)
	e.at = e.at[:0]
	embedded := testing.AllocsPerRun(100, func() { es.RunFor(10 * Second) })
	if len(e.at) != len(at) {
		t.Fatalf("embedded ticker fired %d times, Tick's %d", len(e.at), len(at))
	}
	for i := range at {
		if e.at[i] != at[i] {
			t.Fatalf("tick %d: embedded ticker at %v, Tick's at %v", i, e.at[i], at[i])
		}
	}

	if raceEnabled {
		t.Logf("allocs per 10 ticks under -race: %.2f made by Tick, %.2f embedded (not asserted)", avg, embedded)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per 10 ticker reschedules = %.2f, want 0", avg)
	}
	if embedded != 0 {
		t.Errorf("allocs per 10 embedded ticker reschedules = %.2f, want 0", embedded)
	}
}

// TestAllocFreeSchedule guards the queue's own operations on a warmed
// simulator (pool and both slot arrays grown, a standing population
// queued): scheduling a prebuilt func() through At, scheduling through
// AtArg for the current instant (the now queue: popped at once, popped
// behind an entry that keeps the queue from ever draining, cancelled) and
// for a later one (the soon heap, the timer heap), cancelling and
// re-arming a standing timer, and popping allocate nothing.
func TestAllocFreeSchedule(t *testing.T) {
	s := New(1)
	timers := make([]Timer, 1024)
	for i := range timers {
		timers[i] = s.AtArg(Time(Hour)+Time(i), nop, nil)
	}
	fn := func() {}
	// Warm the pool and the slot array past anything a case below needs.
	for i := 0; i < 8; i++ {
		s.At(s.Now(), fn)
	}
	s.RunUntil(s.Now())
	i := 0
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"At(now)+pop", func() { s.At(s.Now(), fn); s.step(maxTime) }},
		{"AtArg(now)+pop", func() { s.AtArg(s.Now(), nop, nil); s.step(maxTime) }},
		// From here on one extra event stays pending from case to case.
		{"AtArg(now)+pop behind a pending one", func() {
			s.AtArg(s.Now(), nop, nil)
			if s.Pending() > len(timers)+1 {
				s.step(maxTime)
			}
		}},
		{"AtArg(now)+Cancel", func() { s.AtArg(s.Now(), nop, nil).Cancel() }},
		{"AtArg(later)+pop", func() { s.AtArg(s.Now()+1, nop, nil); s.step(maxTime) }},
		{"AtArg(soonSpan later)+pop", func() { s.AtArg(s.Now().Add(soonSpan), nop, nil); s.step(maxTime) }},
		{"Cancel+re-arm", func() {
			tm := &timers[i%len(timers)]
			i += 7
			when := tm.Time()
			tm.Cancel()
			*tm = s.AtArg(when, nop, nil)
		}},
	} {
		avg := testing.AllocsPerRun(1000, tc.op)
		if raceEnabled {
			t.Logf("%s: allocs under -race: %.2f (not asserted)", tc.name, avg)
		} else if avg != 0 {
			t.Errorf("%s: %.2f allocs, want 0", tc.name, avg)
		}
	}
	if s.step(maxTime); s.Pending() != len(timers) {
		t.Fatalf("standing population changed: %d", s.Pending())
	}
}

// TestEventSlabAllocs: a simulator whose free list is empty takes its
// events from the allocator a slab of eventSlab at a time, so k·eventSlab
// schedules that each need a fresh event (nothing fires in between) make k
// allocations — with the heap's storage grown beforehand, nothing else.
// The slab's size rests on event being 48 bytes, home flag included.
func TestEventSlabAllocs(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("event is %d bytes, want 48: eventSlab no longer fills its size class", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, k := range []int{1, 2, 5} {
		s := New(1)
		s.queue.slots = make([]slot, 0, k*eventSlab)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < k*eventSlab; i++ {
			s.AtArg(Time(Hour)+Time(i), nop, nil)
		}
		runtime.ReadMemStats(&after)
		if s.Pending() != k*eventSlab {
			t.Fatalf("%d events pending, want %d", s.Pending(), k*eventSlab)
		}
		got := after.Mallocs - before.Mallocs
		if raceEnabled {
			t.Logf("%d fresh schedules under -race: %d allocs (not asserted)", k*eventSlab, got)
		} else if got != uint64(k) {
			t.Errorf("%d fresh schedules allocate %d objects, want %d slabs", k*eventSlab, got, k)
		}
	}
}

// BenchmarkShardedWindow times one window of the K=8 engine through
// RunUntil — slot reads, worker handoff, barrier, lane drain — with every
// shard active: idle windows run one self-rescheduling event per shard,
// loaded windows add 32 cross-shard sends per shard.
func BenchmarkShardedWindow(b *testing.B) {
	const look = 10 * Millisecond
	for _, bc := range []struct {
		name  string
		sends int
	}{{"idle", 0}, {"sends", 32}} {
		b.Run(bc.name, func(b *testing.B) {
			const k = 8
			g := NewSharded(1, k, 2)
			defer g.Close()
			g.SetLookahead(look)
			for i := 0; i < k; i++ {
				i, sh := i, g.Shard(i)
				var beat func()
				beat = func() {
					for j := 0; j < bc.sends; j++ {
						g.Send(i, (i+1+j%(k-1))%k, sh.Now().Add(look), nop, nil)
					}
					sh.After(look, beat)
				}
				sh.After(look, beat)
			}
			g.RunUntil(Time(8 * look)) // grow lanes, queues and pools
			b.ReportAllocs()
			b.ResetTimer()
			g.RunUntil(g.Now().Add(Duration(b.N) * look))
		})
	}
}

// BenchmarkTicker times one jittered tick: pop, callback, jitter draw,
// re-arm.
func BenchmarkTicker(b *testing.B) {
	s := New(1)
	tk := s.Tick(Second, 100*Millisecond, func() {})
	defer tk.Stop()
	s.RunFor(10 * Second)
	b.ReportAllocs()
	b.ResetTimer()
	for s.Processed = 0; s.Processed < uint64(b.N); {
		s.RunFor(Second)
	}
}
