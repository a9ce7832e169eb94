package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Sharded is a conservative parallel discrete-event engine: K Simulators
// (shards) advancing in lock-step windows of at most one lookahead each.
// The overlay simulation assigns every site to a shard, so a shard owns
// all events of its sites' hosts; the only inter-shard interaction is a
// packet crossing a wide-area path, whose delivery time is bounded below
// by the WAN latency floor. That bound is the classic conservative-PDES
// lookahead: while executing the window [T, T+L), no shard can receive
// anything from another shard earlier than T+L, so all K shards may run
// the window concurrently without ever seeing an event out of timestamp
// order.
//
// Determinism contract: the trace is a pure function of (seed, shard
// count). The worker count only controls how many OS threads execute a
// window and never affects results — cross-shard events travel through
// per-(src,dst) lanes that are single-writer during a window and are
// merged at the barrier in a fixed total order (timestamp, then source
// shard, then emission order). A Sharded engine with one shard is exactly
// the single-threaded Simulator: RunUntil delegates and no windowing
// happens. With K>1 shards each shard has its own event sequence numbers
// and random stream (shard i is seeded with seed+i*1e6+3), so a K-shard
// trace is not the 1-shard trace re-ordered — it is its own reproducible
// execution, equivalent to running the K shards in a single thread in
// global timestamp order (see the testing/quick property in shard_test.go).
type Sharded struct {
	shards    []*Simulator
	workers   int
	lookahead Duration

	// lanes[from*K+to] buffers cross-shard events emitted during the
	// current window. Each lane has exactly one writer (shard `from`'s
	// goroutine), so appends are race-free without locks; the coordinator
	// drains every lane between windows.
	lanes [][]crossEvent

	windowEnd Time // exclusive bound of the in-flight window
	inWindow  bool
	// active is RunUntil's scratch: the shards with work in the window.
	active []int

	jobs    chan int
	done    chan struct{}
	wg      sync.WaitGroup
	started bool
	closed  bool

	// panicMu/panicked capture a panic raised inside a worker so the
	// coordinator can re-raise it on the calling goroutine (a raw panic in
	// a worker would kill the process before any test could observe it).
	panicMu  sync.Mutex
	panicked any
}

// crossEvent is a buffered cross-shard callback. Entries within one lane
// keep emission order; the barrier drains lanes per destination in source-
// shard order, so ties resolve to (timestamp, source shard, emission
// order) — a total order independent of worker scheduling (see mergeLanes).
type crossEvent struct {
	when Time
	fn   func(any)
	arg  any
}

// shardSeedStride separates the shard random streams; any odd constant
// works, it only has to be fixed forever for reproducibility.
const shardSeedStride = 1_000_003

// NewSharded creates a K-shard engine. Shard i runs on its own Simulator
// seeded with seed+i*shardSeedStride. workers bounds the goroutines used
// per window; values below 1 or above K are clamped.
func NewSharded(seed int64, k, workers int) *Sharded {
	if k < 1 {
		panic("sim: sharded engine needs at least one shard")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > k {
		workers = k
	}
	g := &Sharded{
		shards:  make([]*Simulator, k),
		workers: workers,
		lanes:   make([][]crossEvent, k*k),
		active:  make([]int, 0, k),
		jobs:    make(chan int),
		done:    make(chan struct{}),
	}
	for i := range g.shards {
		g.shards[i] = New(seed + int64(i)*shardSeedStride)
		g.shards[i].shard = i
	}
	return g
}

// Shards reports the shard count K.
func (g *Sharded) Shards() int { return len(g.shards) }

// Workers reports the clamped worker count.
func (g *Sharded) Workers() int { return g.workers }

// Shard returns shard i's Simulator. Outside RunUntil it may be used
// freely (scheduling setup events, reading clocks); during a run it must
// only be touched by events executing on that shard.
func (g *Sharded) Shard(i int) *Simulator { return g.shards[i] }

// SetLookahead sets the conservative window length: the guaranteed
// minimum delay of any cross-shard event, i.e. the infimum of inter-site
// delivery latency between hosts on different shards (phys computes it
// with Network.CrossShardFloor). Middlebox (realm-boundary) traversal
// never shrinks this bound: a boundary-deferred packet crosses shards
// exactly once, at its wide-area arrival time, and the inbound NAT or
// firewall descent then executes at that same timestamp on the receiving
// shard — translation adds work, not an earlier cross-shard event. Must
// be positive before a multi-shard RunUntil.
func (g *Sharded) SetLookahead(d Duration) {
	if d <= 0 {
		panic("sim: lookahead must be positive")
	}
	g.lookahead = d
}

// Lookahead reports the configured window length.
func (g *Sharded) Lookahead() Duration { return g.lookahead }

// Processed sums events executed across all shards.
func (g *Sharded) Processed() uint64 {
	var total uint64
	for _, s := range g.shards {
		total += s.Processed
	}
	return total
}

// Pending sums queued events across all shards.
func (g *Sharded) Pending() int {
	total := 0
	for _, s := range g.shards {
		total += s.Pending()
	}
	return total
}

// Now reports the maximum shard clock — after RunUntil(t) returns this is
// t for every shard, so it reads as the engine's clock between runs.
func (g *Sharded) Now() Time {
	var max Time
	for _, s := range g.shards {
		if n := s.Now(); n > max {
			max = n
		}
	}
	return max
}

// Send schedules fn(arg) at absolute time when on shard to, on behalf of
// shard from. During a window it buffers into the (from,to) lane and
// panics if when violates the lookahead guarantee — a violation means the
// latency model allowed a cross-shard delivery faster than the configured
// floor, which would let the destination shard observe the past. Outside
// a run it schedules directly (harness setup, between-phase injection).
func (g *Sharded) Send(from, to int, when Time, fn func(any), arg any) {
	if !g.inWindow {
		g.shards[to].AtArg(when, fn, arg)
		return
	}
	if when < g.windowEnd {
		panic(fmt.Sprintf("sim: lookahead violation: shard %d sent an event to shard %d at %v inside window ending %v (lookahead %v too large for the latency floor)",
			from, to, when, g.windowEnd, g.lookahead))
	}
	lane := &g.lanes[from*len(g.shards)+to]
	*lane = append(*lane, crossEvent{when: when, fn: fn, arg: arg})
}

// ensureWorkers lazily starts the persistent worker pool. Each worker
// pulls shard indices off jobs and runs that shard's slice of the current
// window; the channel handoff orders the coordinator's window state
// (windowEnd, lane resets) before shard execution, and wg.Wait orders all
// shard writes before the coordinator's merge.
func (g *Sharded) ensureWorkers() {
	if g.started {
		return
	}
	g.started = true
	for w := 0; w < g.workers; w++ {
		go func() {
			for {
				select {
				case i := <-g.jobs:
					g.runShardWindow(i)
					g.wg.Done()
				case <-g.done:
					return
				}
			}
		}()
	}
}

// runShardWindow executes shard i's slice of the current window,
// converting an event-callback panic into a recorded value for the
// coordinator to re-raise.
func (g *Sharded) runShardWindow(i int) {
	defer func() {
		if r := recover(); r != nil {
			g.panicMu.Lock()
			if g.panicked == nil {
				g.panicked = r
			}
			g.panicMu.Unlock()
		}
	}()
	g.shards[i].RunBefore(g.windowEnd)
}

// Close stops the worker pool. The engine is unusable afterwards —
// RunUntil panics — and closing again is a no-op; only needed by harnesses
// that create many engines in one process.
func (g *Sharded) Close() {
	if g.started && !g.closed {
		close(g.done)
	}
	g.closed = true
}

// RunUntil executes events on every shard up to and including timestamp t
// and advances all shard clocks to t, like Simulator.RunUntil but in
// parallel windows. With one shard it delegates to the plain Simulator.
func (g *Sharded) RunUntil(t Time) {
	if g.closed {
		// The workers are gone: handing them a window would block forever.
		panic("sim: RunUntil on a closed engine")
	}
	if len(g.shards) == 1 {
		g.shards[0].RunUntil(t)
		return
	}
	if g.lookahead <= 0 {
		panic("sim: multi-shard RunUntil without SetLookahead")
	}
	g.ensureWorkers()
	active := g.active
	for {
		// Global window floor: earliest pending event anywhere.
		var floor Time
		have := false
		for _, s := range g.shards {
			if pt, ok := s.PeekTime(); ok && (!have || pt < floor) {
				floor, have = pt, true
			}
		}
		if !have || floor > t {
			break
		}
		end := floor.Add(g.lookahead)
		if end > t {
			end = t + 1 // inclusive of events exactly at t
		}
		g.windowEnd = end
		g.inWindow = true
		active = active[:0]
		for i, s := range g.shards {
			if pt, ok := s.PeekTime(); ok && pt < end {
				active = append(active, i)
			}
		}
		g.wg.Add(len(active))
		for _, i := range active {
			g.jobs <- i
		}
		g.wg.Wait()
		g.inWindow = false
		if g.panicked != nil {
			r := g.panicked
			g.panicked = nil
			panic(r)
		}
		g.mergeLanes()
	}
	for _, s := range g.shards {
		s.AdvanceTo(t)
	}
}

// RunFor advances every shard d beyond the engine's current clock, like
// Simulator.RunFor but across all shards.
func (g *Sharded) RunFor(d Duration) { g.RunUntil(g.Now().Add(d)) }

// MergeStable concatenates parts in slice order and stable-sorts the
// result by when, yielding the canonical (timestamp, part index, emission
// order) total order of every deterministic cross-shard merge. The flight
// recorder merges its per-shard trace buffers with it; the engine's event
// lanes reach the same order without sorting (see mergeLanes). When
// exactly one part is non-empty the result aliases it (no copy) — callers
// that reuse the source storage must consume the result before clearing.
func MergeStable[T any](parts [][]T, when func(T) Time) []T {
	var buf []T
	single := -1
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		if single == -1 && buf == nil {
			single = i
			continue
		}
		if single >= 0 {
			buf = append(buf, parts[single]...)
			single = -1
		}
		buf = append(buf, p...)
	}
	if single >= 0 {
		buf = parts[single]
	}
	if len(buf) == 0 {
		return nil
	}
	sort.SliceStable(buf, func(i, j int) bool { return when(buf[i]) < when(buf[j]) })
	return buf
}

// mergeLanes drains every cross-shard lane straight into its destination
// shard's queue, lane by lane in source-shard order and entry by entry in
// emission order. No sort is needed to realise the canonical (timestamp,
// source shard, emission order) total order: the destination queue orders
// by (when, seq), seq is handed out in scheduling order, so lane entries
// with equal timestamps receive ascending seq in exactly (source shard,
// emission) order, while every event the destination had already queued
// keeps a smaller seq and every event scheduled later gets a larger one.
// The pop order is therefore the one MergeStable followed by AtArg would
// produce (TestQuickLaneDrainMatchesMergeStable holds the two together).
func (g *Sharded) mergeLanes() {
	k := len(g.shards)
	for to, dst := range g.shards {
		for from := 0; from < k; from++ {
			lane := g.lanes[from*k+to]
			for i := range lane {
				dst.AtArg(lane[i].when, lane[i].fn, lane[i].arg)
				lane[i] = crossEvent{}
			}
			g.lanes[from*k+to] = lane[:0]
		}
	}
}
