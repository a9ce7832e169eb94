package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
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
// count). The worker count only controls how many goroutines execute a
// window and never affects results — cross-shard events travel through
// per-(src,dst) lanes that are single-writer during a window and are
// drained into their destination before it runs again, in a fixed total
// order (timestamp, then source shard, then emission order). A Sharded engine with one shard is exactly
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
	// current window. Each lane has exactly one writer (whoever runs shard
	// `from`), so appends are race-free without locks. When the next
	// window starts the two sets swap: what the last window sent is in
	// inbound, and whoever runs shard `to` drains inbound[·*K+to] into it
	// before its first event.
	lanes, inbound [][]crossEvent

	last     Time // inclusive last instant of the in-flight window
	inWindow bool
	par      Parallelism

	// The window barrier (DESIGN.md §9, "The window barrier"): the caller
	// of RunUntil runs shards itself, beside workers-1 helpers.
	bar     barrier
	slots   []shardSlot
	helpers []helper
	exited  sync.WaitGroup
	started bool
	closed  bool

	// panicMu/panicked capture a panic raised inside a shard's window so
	// the coordinator can re-raise it on the calling goroutine (a raw panic
	// in a helper would kill the process before any test could observe it).
	panicMu  sync.Mutex
	panicked any
}

// CacheLine pads what one participant of a window, or one shard, writes,
// so that its writes do not evict a line another one is using.
const CacheLine = 64

// barrier holds the two words every participant of a window touches.
type barrier struct {
	// epoch numbers the window being run (1, 2, …); quitEpoch after Close.
	epoch atomic.Uint64
	_     [CacheLine - 8]byte
	// left counts the window's shards not yet run.
	left atomic.Int64
	_    [CacheLine - 8]byte
}

// quitEpoch tells the helpers to exit.
const quitEpoch = ^uint64(0)

// shardSlot is a shard's line: its claim word and what the shard's runner
// reports at the end of its slice of a window, so that the coordinator
// learns the next window's floor and this window's counts from K lines,
// without reaching into any shard's queue or lanes.
type shardSlot struct {
	// state is the claim word: 2e while window e is open and no participant
	// has claimed the shard, 2e+1 once one has. Only a CAS from 2e to
	// 2e+1 claims it, so a helper still walking an earlier window can never
	// take a shard of a later one.
	state atomic.Uint64
	// next is the earliest event the shard holds or has handed to a lane in
	// the window (Send lowers it), unless idle says there is none.
	next   Time
	events uint64 // events the shard executed in the window
	idle   bool
	_      [CacheLine - 25]byte
}

// note lowers the slot's next to when, if ok.
func (sl *shardSlot) note(when Time, ok bool) {
	if ok && (sl.idle || when < sl.next) {
		sl.next, sl.idle = when, false
	}
}

// helper is a helper goroutine's parking place: it sleeps on wake once
// it has spun for helperSpin without seeing a new epoch, after setting
// asleep. Whoever flips asleep back to false owns the wake-up, so a wake
// is never lost and never doubled.
type helper struct {
	wake   chan struct{}
	asleep atomic.Bool
	_      [CacheLine - 16]byte
}

// helperSpin is how long an idle helper polls for the next window before
// it parks. A window of the 3000-router benchmark ring with 100 events or
// more takes a median 24 µs on a 2-core guest (53 µs at the 90th
// percentile); a helper that has finished its shards waits for the
// slowest shard and the coordinator's read of the slots, which is shorter,
// so a spin of this length catches the next window without a wake-up
// while a long pause between runs costs it no more than this much CPU.
const helperSpin = 50 * time.Microsecond

// spinYield is how many polls a spinning participant makes between
// runtime.Gosched calls, so that it gives way when the cores are
// oversubscribed.
const spinYield = 128

// Parallelism counts what the engine's windows offered to run in parallel.
// The counts are exact per (seed, shard count, RunUntil horizons) and do
// not depend on the worker count. With one shard every RunUntil that runs
// an event is one window.
type Parallelism struct {
	Windows uint64 // windows run
	Events  uint64 // events executed in them
	Busiest uint64 // sum over windows of the most events one shard executed
}

// bound is Events/Busiest: the speed-up over one worker that a worker per
// shard and a free barrier would give (0 before any event).
func (p Parallelism) bound() float64 {
	if p.Busiest == 0 {
		return 0
	}
	return float64(p.Events) / float64(p.Busiest)
}

// crossEvent is a buffered cross-shard callback. Entries within one lane
// keep emission order; lanes are drained per destination in source-shard
// order, so ties resolve to (timestamp, source shard, emission order) — a
// total order independent of worker scheduling (see drain).
type crossEvent struct {
	when Time
	fn   func(any)
	arg  any
}

// shardSeedStride separates the shard random streams; any odd constant
// works, it only has to be fixed forever for reproducibility.
const shardSeedStride = 1_000_003

// NewSharded creates a K-shard engine. Shard i runs on its own Simulator
// seeded with seed+i*shardSeedStride. workers counts the goroutines that
// run a window's shards, the caller of RunUntil included: the first
// multi-shard RunUntil starts workers-1 helper goroutines, and one worker
// starts none. Values below 1 or above K are clamped.
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
		inbound: make([][]crossEvent, k*k),
		slots:   make([]shardSlot, k),
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

// parallelism reports what the windows run so far offered to run in
// parallel.
func (g *Sharded) parallelism() Parallelism { return g.par }

// Send schedules fn(arg) at absolute time when on shard to, on behalf of
// shard from. During a window it buffers into the (from,to) lane and
// panics if when falls inside the window — a violation means the latency
// model allowed a cross-shard delivery faster than the configured floor,
// which would let the destination shard observe the past. Outside a run
// it schedules directly (harness setup, between-phase injection).
func (g *Sharded) Send(from, to int, when Time, fn func(any), arg any) {
	if !g.inWindow {
		g.shards[to].AtArg(when, fn, arg)
		return
	}
	if when <= g.last {
		panic(fmt.Sprintf("sim: lookahead violation: shard %d sent an event to shard %d at %v inside window ending at %v inclusive (lookahead %v too large for the latency floor)",
			from, to, when, g.last, g.lookahead))
	}
	g.slots[from].note(when, true)
	lane := &g.lanes[from*len(g.shards)+to]
	*lane = append(*lane, crossEvent{when: when, fn: fn, arg: arg})
}

// Close stops the helpers and returns once they have exited. The engine is
// unusable afterwards — RunUntil panics — and closing again is a no-op;
// only needed by harnesses that create many engines in one process.
func (g *Sharded) Close() {
	if g.started && !g.closed {
		g.publish(quitEpoch)
		g.exited.Wait()
	}
	g.closed = true
}

// RunUntil executes events on every shard up to and including timestamp t
// and advances all shard clocks to t, like Simulator.RunUntil but in
// parallel windows. With one shard it delegates to the plain Simulator.
func (g *Sharded) RunUntil(t Time) {
	if g.closed {
		// The helpers are gone: a window would wait for them forever.
		panic("sim: RunUntil on a closed engine")
	}
	if len(g.shards) == 1 {
		s := g.shards[0]
		n := s.Processed
		s.RunUntil(t)
		if d := s.Processed - n; d > 0 {
			g.par.Windows++
			g.par.Events += d
			g.par.Busiest += d
		}
		return
	}
	if g.lookahead <= 0 {
		panic("sim: multi-shard RunUntil without SetLookahead")
	}
	g.startHelpers()
	// Between runs every event is in a shard's queue (mergeLanes), so the
	// first floor comes from the shards' heads; each later one from what
	// the runners of the window before reported on their slots.
	for i, s := range g.shards {
		g.slots[i].idle = true
		g.slots[i].note(s.PeekTime())
	}
	for {
		floor, ok := g.floor()
		if !ok || floor > t {
			break
		}
		// The window's last instant: floor+lookahead-1, or t if that is
		// sooner — computed without overflowing near the end of time.
		last := t
		if Duration(t-floor) >= g.lookahead {
			last = floor.Add(g.lookahead - 1)
		}
		g.window(last)
	}
	g.mergeLanes()
	for _, s := range g.shards {
		s.AdvanceTo(t)
	}
}

// floor reports the earliest event the slots report: the next window's
// floor, or false when no shard holds an event.
func (g *Sharded) floor() (Time, bool) {
	var floor Time
	ok := false
	for i := range g.slots {
		if sl := &g.slots[i]; !sl.idle && (!ok || sl.next < floor) {
			floor, ok = sl.next, true
		}
	}
	return floor, ok
}

// window runs every shard through last. A shard with nothing due by then
// is claimed too: its runner drains its inbound lanes and reports its head.
func (g *Sharded) window(last Time) {
	e := g.bar.epoch.Load() + 1
	g.last = last
	g.inWindow = true
	g.lanes, g.inbound = g.inbound, g.lanes
	for i := range g.slots {
		g.slots[i].state.Store(e << 1)
	}
	g.bar.left.Store(int64(len(g.slots)))
	g.publish(e)
	g.work(0, e)
	for n := 1; g.bar.left.Load() != 0; n++ {
		if n%spinYield == 0 {
			runtime.Gosched()
		}
	}
	g.inWindow = false
	if g.panicked != nil {
		r := g.panicked
		g.panicked = nil
		panic(r)
	}
	var busiest uint64
	for i := range g.slots {
		d := g.slots[i].events
		g.par.Events += d
		busiest = max(busiest, d)
	}
	g.par.Windows++
	g.par.Busiest += busiest
}

// publish stores epoch e and wakes every parked helper.
func (g *Sharded) publish(e uint64) {
	g.bar.epoch.Store(e)
	for p := range g.helpers {
		h := &g.helpers[p]
		if h.asleep.Load() && h.asleep.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
}

// startHelpers starts the workers-1 helper goroutines once.
func (g *Sharded) startHelpers() {
	if g.started {
		return
	}
	g.started = true
	g.helpers = make([]helper, g.workers-1)
	g.exited.Add(len(g.helpers))
	for p := range g.helpers {
		g.helpers[p].wake = make(chan struct{}, 1)
		go g.help(p + 1)
	}
}

// help is helper p's loop: wait for a new window, run its share, repeat
// until Close.
func (g *Sharded) help(p int) {
	defer g.exited.Done()
	h := &g.helpers[p-1]
	for e := uint64(0); ; {
		if e = g.await(h, e); e == quitEpoch {
			return
		}
		g.work(p, e)
	}
}

// await returns the first epoch after seen. It polls for helperSpin,
// yielding every spinYield polls, and then parks until publish wakes it.
func (g *Sharded) await(h *helper, seen uint64) uint64 {
	var start time.Time
	for n := 1; ; n++ {
		if e := g.bar.epoch.Load(); e != seen {
			return e
		}
		if n%spinYield == 0 {
			if start.IsZero() {
				start = time.Now()
			} else if time.Since(start) > helperSpin {
				break
			}
			runtime.Gosched()
		}
	}
	h.asleep.Store(true)
	// A window published since the last poll may have missed asleep: take
	// the wake-up back, or, if publish already took it, consume its token.
	if e := g.bar.epoch.Load(); e != seen && h.asleep.CompareAndSwap(true, false) {
		return e
	}
	<-h.wake
	return g.bar.epoch.Load()
}

// work runs participant p's share of window e: its home shards
// (i ≡ p mod workers) first, then, from the far end, every shard no one
// has claimed yet. The coordinator is participant 0.
func (g *Sharded) work(p int, e uint64) {
	k, w := len(g.shards), g.workers
	for i := p; i < k; i += w {
		g.claim(i, e)
	}
	for i := k - 1; i >= 0; i-- {
		if i%w != p {
			g.claim(i, e)
		}
	}
}

// claim runs shard i's slice of window e if no one has claimed it there
// yet.
func (g *Sharded) claim(i int, e uint64) {
	st := &g.slots[i].state
	if st.Load() != e<<1 || !st.CompareAndSwap(e<<1, e<<1|1) {
		return
	}
	g.runShard(i)
	g.bar.left.Add(-1)
}

// runShard executes shard i's slice of the current window and reports it
// on the shard's slot, converting an event-callback panic into a recorded
// value for the coordinator to re-raise.
func (g *Sharded) runShard(i int) {
	defer func() {
		if r := recover(); r != nil {
			g.panicMu.Lock()
			if g.panicked == nil {
				g.panicked = r
			}
			g.panicMu.Unlock()
		}
	}()
	s, sl := g.shards[i], &g.slots[i]
	n := s.Processed
	sl.idle = true
	g.drain(g.inbound, i)
	s.runThrough(g.last)
	sl.events = s.Processed - n
	sl.note(s.PeekTime())
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

// mergeLanes drains every lane of the current set into its destination
// shard; RunUntil calls it when its last window is done, so that between
// runs every event is in a shard's queue.
func (g *Sharded) mergeLanes() {
	for to := range g.shards {
		g.drain(g.lanes, to)
	}
}

// drain moves shard to's lanes of one set into its queue, lane by lane in
// source-shard order and entry by entry in emission order. No sort is
// needed to realise the canonical (timestamp, source shard, emission order)
// total order: the destination queue orders by (when, seq), seq is handed
// out in scheduling order, so lane entries with equal timestamps receive
// ascending seq in exactly (source shard, emission) order, while every
// event the destination had already queued keeps a smaller seq and every
// event scheduled later gets a larger one. The pop order is therefore the
// one MergeStable followed by AtArg would produce
// (TestQuickLaneDrainMatchesMergeStable holds the two together). Nothing
// else schedules on the destination between the window that filled the
// lanes and the drain — not even its own events, which run after it — so
// draining at the start of the next window, by whoever runs the shard
// there, gives every event the seq a drain right after the window would.
func (g *Sharded) drain(lanes [][]crossEvent, to int) {
	k := len(g.shards)
	dst := g.shards[to]
	for l := to; l < k*k; l += k { // lanes[from*k+to], from = 0, 1, …
		lane := lanes[l]
		for i := range lane {
			dst.AtArg(lane[i].when, lane[i].fn, lane[i].arg)
			lane[i] = crossEvent{}
		}
		lanes[l] = lane[:0]
	}
}
