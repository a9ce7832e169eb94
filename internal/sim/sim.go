// Package sim provides a deterministic discrete-event simulation engine.
//
// All WOW experiments run in virtual time: protocol stacks, NAT boxes, batch
// schedulers and file transfers schedule events on a shared Simulator, which
// executes them in timestamp order. A seeded random source makes every run
// repeatable, and experiments that took hours on the paper's PlanetLab
// testbed complete in milliseconds of wall-clock time.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so the familiar unit constants can be used.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration in seconds with millisecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// Seconds reports the time as a floating-point number of seconds since
// simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time in seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("t=%.3fs", t.Seconds()) }

// maxTime is the latest Time: the limit under which Run runs everything.
const maxTime Time = math.MaxInt64

// event is a pooled scheduled callback. Fired and cancelled events return
// to the simulator's free list, so cancel-heavy workloads (retransmit
// timers, keepalives) recycle a small working set instead of churning the
// allocator. gen is bumped on every release; Timer handles carry the gen
// they were issued with, so a stale handle can never cancel a recycled
// event. The ordering key (when, seq) is not here: it lives in the event's
// queue slot, where comparisons read it without touching the event. soon
// rides in the padding after index: event is 48 bytes (see eventSlab).
type event struct {
	fn    func(any)
	arg   any
	next  *event // free-list link
	gen   uint64
	index int32 // the event's slot: slots[index] of its heap, or Simulator.nowq[^index] when negative
	soon  bool  // the heap is Simulator.soon, not Simulator.queue
}

// slot is one entry of the pending-event queue: the ordering key inline,
// then the event it orders. Pop order is the (when, seq) total order and
// nothing else — seq is unique, so no two slots ever compare equal and
// neither the shape of a heap nor which of the three homes (the two heaps
// and the now queue) a slot sits in can influence which event fires next.
type slot struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	ev   *event
}

// before reports whether a fires before b.
func (a *slot) before(b *slot) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// Timer is a cancelable handle to a scheduled event, returned by the
// scheduling methods. It is a value: copy it freely. The zero Timer is
// inert — Cancel and Active on it are no-ops — so an unarmed timer field
// needs no nil check. A Timer whose event has already fired (or been
// cancelled) is likewise inert, even after the simulator recycles the
// underlying event for an unrelated callback.
type Timer struct {
	s   *Simulator
	ev  *event
	gen uint64
}

// Active reports whether the timer's event is still pending.
func (t Timer) Active() bool { return t.ev != nil && t.ev.gen == t.gen }

// Time reports when the event is scheduled to fire; zero for an inert
// timer.
func (t Timer) Time() Time {
	if !t.Active() {
		return 0
	}
	i := t.ev.index
	if i < 0 {
		return t.s.nowq[^i].when
	}
	return t.s.heapOf(t.ev).slots[i].when
}

// Cancel prevents a pending event from firing, removing it from the queue
// immediately. Cancelling an event that has already fired or been
// cancelled is a no-op. Cancel reports whether the event was still
// pending.
func (t Timer) Cancel() bool {
	if !t.Active() {
		return false
	}
	if i := int(t.ev.index); i < 0 {
		t.s.retireNow(^i)
	} else {
		h := t.s.heapOf(t.ev)
		if h.hole {
			h.closeHole() // moves slots: the index is read after it
		}
		h.remove(int(t.ev.index))
	}
	t.s.release(t.ev)
	return true
}

// Simulator owns the virtual clock and the pending-event queue. It is not
// safe for concurrent use; one goroutine drives one Simulator. Independent
// simulations (e.g. benchmark trials) may run in parallel goroutines, each
// with its own Simulator.
type Simulator struct {
	now Time
	// The two heaps: soon holds events due less than soonSpan after they
	// were scheduled — packets in flight — and queue every later one — the
	// standing timers — so a packet's push and pop sift through a few
	// dozen slots instead of thousands. An event stays in the heap it was
	// pushed into however the clock moves; head compares the heads.
	queue heap4
	soon  heap4

	// The now queue: events scheduled for the instant they were scheduled
	// at, in scheduling order. Entries are appended with when == now, the
	// clock never moves backward and seq only grows, so nowq[nowHead:] is
	// sorted by (when, seq) like the heaps, and the next event is whichever
	// of the three heads fires first (see head). nowq[:nowHead] has been
	// popped; a cancelled entry stays behind as a zeroed tombstone until the
	// head passes it or compactNow squeezes it out. While nowLive > 0 the
	// head entry is live.
	nowq    []slot
	nowHead int
	nowLive int // entries of nowq that are neither popped nor cancelled

	free    *event
	nextSeq uint64
	rng     *rand.Rand
	stopped bool

	locals []local // see Local
	// shard is the simulator's index in its Sharded engine (0 for one made
	// by New): the name the packetdebug free list gives a shard in a panic.
	shard int

	// Processed counts events executed since construction; useful for
	// run-length diagnostics and loop detection in tests.
	Processed uint64
}

// New creates a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// local is one value a package keeps on the simulator (see Local).
type local struct{ key, val any }

// Local returns the value this simulator keeps under key, made by mk from the
// simulator the first time the key is asked for. It is the home of what all
// hosts of one shard share and no other shard touches — the free lists of
// pooled packets above all: one goroutine drives a Simulator, so what hangs
// off it needs no lock, and a shard's Simulator is the one piece of shard
// identity every layer can reach. Keys compare with ==; a package passes a
// value of an unexported type of its own, so two packages cannot collide.
// The lookup is a scan of a handful of entries: fetch the value when a node
// or stack is built and keep the pointer, not per packet.
func (s *Simulator) Local(key any, mk func(*Simulator) any) any {
	for i := range s.locals {
		if s.locals[i].key == key {
			return s.locals[i].val
		}
	}
	v := mk(s)
	s.locals = append(s.locals, local{key, v})
	return v
}

// Pooled is what a struct embeds to have its objects recycled through a
// FreeList (freelist.go; freelist_debug.go under -tags packetdebug): the
// list's own word in the object, one byte, which fits in the padding after
// a small field.
type Pooled struct {
	// mark is empty except under the packetdebug build tag, where it holds
	// the owner stamp (and leads the struct: a trailing zero-size field
	// would cost a byte of padding).
	mark poolMark
	// listable is set by Get and cleared by Put and Unpool: only an object
	// that came from a list and has stayed in the pools' hands goes back on
	// one.
	listable bool
}

// pooled is how a FreeList reaches its word in an object (see Poolable).
func (h *Pooled) pooled() *Pooled { return h }

// Unpool takes the object out of the pools' hands for good: Put will leave
// it to the garbage collector. It is what a sender does before something
// that may keep the pointer past the receiving handler — the retransmission
// buffer of a phys.Stream — carries the object.
func (h *Pooled) Unpool() { h.listable = false }

// Poolable is the constraint of a FreeList's object pointer: *T for a
// struct T that embeds Pooled.
type Poolable[T any] interface {
	*T
	pooled() *Pooled
}

// eventSlab is how many events acquire allocates at once when the free list
// is empty: 63 events of 48 bytes and the allocator's 8-byte header fill the
// 3072-byte size class, where 64 would take the 3200-byte one.
const eventSlab = 63

// acquire takes an event from the free list, refilling the list with a slab
// of fresh events when it is empty.
func (s *Simulator) acquire() *event {
	e := s.free
	if e == nil {
		slab := make([]event, eventSlab)
		for i := range slab[:eventSlab-1] {
			slab[i].next = &slab[i+1]
		}
		e = &slab[0]
	}
	s.free = e.next
	e.next = nil
	return e
}

// release retires an event to the free list. Bumping gen here invalidates
// every Timer handle issued for the retired scheduling.
func (s *Simulator) release(e *event) {
	e.gen++
	e.fn, e.arg = nil, nil
	e.next = s.free
	s.free = e
}

// soonSpan is the distance ahead below which AtArg pushes an event into
// the soon heap rather than the timer heap. It covers every path latency
// and service time of the testbeds (0.3 ms LAN, 10–35 ms WAN, under 2 ms
// of service) and lies under every standing timer: the shortest, vip's
// minimum retransmission timeout, is 200 ms.
const soonSpan = 100 * Millisecond

// heap4 is a 4-ary min-heap on (when, seq); the children of slot i are
// 4i+1..4i+4. A popped root may stay behind as a hole (see step): slots[0]
// is then dead, the next push (AtArg) fills it from the root down, and
// whatever reads or edits the heap before that push closes it first.
type heap4 struct {
	slots []slot
	hole  bool
}

// heapOf returns the heap that holds e's slot (e.index >= 0).
func (s *Simulator) heapOf(e *event) *heap4 {
	if e.soon {
		return &s.soon
	}
	return &s.queue
}

// len counts the heap's live slots: a hole is not one.
func (h *heap4) len() int {
	if h.hole {
		return len(h.slots) - 1
	}
	return len(h.slots)
}

// closeHole fills an open hole the ordinary way: the last slot takes the
// root and sifts down.
func (h *heap4) closeHole() {
	h.hole = false
	h.remove(0)
}

// up places sl at or above position i, whose slot is free: ancestors that
// fire after sl move down one level each, written once.
func (h *heap4) up(i int, sl slot) {
	q := h.slots
	for i > 0 {
		p := (i - 1) / 4
		if !sl.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = int32(i)
		i = p
	}
	q[i] = sl
	sl.ev.index = int32(i)
}

// down places sl at or below position i, whose slot is free: at each level
// the earliest of up to four children moves up while it fires before sl.
func (h *heap4) down(i int, sl slot) {
	q := h.slots
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&sl) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = int32(i)
		i = m
	}
	q[i] = sl
	sl.ev.index = int32(i)
}

// remove deletes the slot at position i (0 pops the minimum): the last
// slot takes its place and sifts to where it belongs.
func (h *heap4) remove(i int) {
	q := h.slots
	n := len(q) - 1
	last := q[n]
	q[n] = slot{}
	h.slots = q[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&q[(i-1)/4]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// closeHoles closes whichever heap's hole is open. Code that may run
// inside a callback and reads a heap's root calls it first.
func (s *Simulator) closeHoles() {
	if s.queue.hole {
		s.queue.closeHole()
	}
	if s.soon.hole {
		s.soon.closeHole()
	}
}

// head returns the earliest pending slot, or nil when nothing is pending;
// no hole may be open. The two heaps and the now queue are each sorted by
// (when, seq), so taking the earliest of their heads is a k-way merge of
// the one total order: no home has precedence, the comparison decides.
// The merge is two functions, each within the inliner's budget where head
// as a whole is not, so that step spells head out and pays no call.
func (s *Simulator) head() *slot { return s.nowOr(s.heapHead()) }

// heapHead returns the earlier of the two heaps' roots, or nil.
func (s *Simulator) heapHead() *slot {
	var h *slot
	if q := s.queue.slots; len(q) > 0 {
		h = &q[0]
	}
	if q := s.soon.slots; len(q) > 0 && (h == nil || q[0].before(h)) {
		h = &q[0]
	}
	return h
}

// nowOr returns the now queue's head if it fires before h, h otherwise.
func (s *Simulator) nowOr(h *slot) *slot {
	if s.nowLive > 0 {
		if n := &s.nowq[s.nowHead]; h == nil || n.before(h) {
			return n
		}
	}
	return h
}

// retireNow takes entry i out of the now queue, popped or cancelled: its
// slot is zeroed, the head moves past whatever tombstones it then faces,
// and an emptied queue restarts at the front of its storage.
func (s *Simulator) retireNow(i int) {
	s.nowq[i] = slot{}
	s.nowLive--
	if s.nowLive == 0 {
		s.nowq, s.nowHead = s.nowq[:0], 0
		return
	}
	for s.nowq[s.nowHead].ev == nil {
		s.nowHead++
	}
}

// compactNow slides the live entries of the now queue to the front of its
// storage, dropping the popped prefix and the tombstones.
func (s *Simulator) compactNow() {
	q := s.nowq
	n := 0
	for i := s.nowHead; i < len(q); i++ {
		if q[i].ev != nil {
			q[n] = q[i]
			q[n].ev.index = ^int32(n)
			n++
		}
	}
	clear(q[n:])
	s.nowq, s.nowHead = q[:n], 0
}

// callFunc runs a func() scheduled through At: the function value itself
// is the event's argument (pointer-shaped, so boxing it allocates nothing).
func callFunc(fn any) { fn.(func())() }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// clamps to the current time (the event runs next).
func (s *Simulator) At(t Time, fn func()) Timer {
	return s.AtArg(t, callFunc, fn)
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Simulator) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// AtArg schedules fn(arg) at absolute virtual time t (clamped to now, like
// At). With a package-level (non-capturing) fn this schedules without
// allocating: no closure is created, and the pooled event carries arg —
// the allocation-free form the packet-delivery hot path uses.
//
// An event for the current instant is appended to the now queue in O(1);
// one due less than soonSpan ahead is pushed into the soon heap, any other
// into the timer heap. Same-instant events are a heap's worst case (they
// sift up past every pending event, and popping them drags a later one
// back down) and most of a packet-heavy run; packets in flight are most of
// the rest, and in the soon heap they do not sift past the standing timers.
func (s *Simulator) AtArg(t Time, fn func(any), arg any) Timer {
	k := s.Reserve(t)
	if k.When > s.now {
		return s.AtKey(k, fn, arg)
	}
	e := s.acquire()
	e.fn, e.arg = fn, arg
	// Out of room with at most half the storage live: reuse it rather
	// than grow, so capacity follows the largest burst of live entries
	// and not the number of events an instant processes.
	if n := len(s.nowq); n == cap(s.nowq) && s.nowLive <= n/2 {
		s.compactNow()
	}
	e.index = ^int32(len(s.nowq))
	s.nowq = append(s.nowq, slot{when: k.When, seq: k.seq, ev: e})
	s.nowLive++
	return Timer{s: s, ev: e, gen: e.gen}
}

// Key is a place in the pop order: the instant an event is due and the
// sequence number that orders it among the events of that instant. Reserve
// hands keys out and AtKey schedules at one.
type Key struct {
	When Time
	seq  uint64
}

// Before reports whether k comes before o in the pop order.
func (k Key) Before(o Key) bool {
	return k.When < o.When || (k.When == o.When && k.seq < o.seq)
}

// Reserve takes the key AtArg(t, …) would give its event now — t clamped to
// the current time, and the next sequence number — without scheduling
// anything. Arming the key later with AtKey fires the event exactly where
// AtArg would have: a deadline can wait outside the queue, behind an earlier
// one its owner keeps armed, without moving anything in the pop order.
func (s *Simulator) Reserve(t Time) Key {
	if t < s.now {
		t = s.now
	}
	k := Key{When: t, seq: s.nextSeq}
	s.nextSeq++
	return k
}

// AtKey schedules fn(arg) at k, a key Reserve handed out that the run has
// not passed: nothing that fires after k may have fired yet. A key can be
// armed, cancelled and armed again. The event goes into a heap — the soon
// heap when it is due less than soonSpan ahead, the timer heap otherwise —
// even when it is due at the current instant: the now queue's order rests
// on every append carrying a newer seq than the entries it joins, and a
// reserved seq is older than those scheduled since. AtKey panics on a key
// due before the clock; the rest of the contract is the caller's.
func (s *Simulator) AtKey(k Key, fn func(any), arg any) Timer {
	if k.When < s.now {
		panic(fmt.Sprintf("sim: AtKey at %v, before the clock at %v", k.When, s.now))
	}
	e := s.acquire()
	e.fn, e.arg = fn, arg
	sl := slot{when: k.When, seq: k.seq, ev: e}
	h := &s.queue
	if e.soon = k.When.Sub(s.now) < soonSpan; e.soon {
		h = &s.soon
	}
	if h.hole {
		// Replace-top: the popped event's callback is scheduling the
		// next one, and it sifts down from the root the last slot
		// would otherwise have been sifted down from.
		h.hole = false
		h.down(0, sl)
	} else {
		h.slots = append(h.slots, slot{})
		h.up(len(h.slots)-1, sl)
	}
	return Timer{s: s, ev: e, gen: e.gen}
}

// Stop terminates the run loop after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Pending reports the number of events waiting in the queue. Cancelled
// events leave the queue immediately and are not counted.
func (s *Simulator) Pending() int { return s.queue.len() + s.soon.len() + s.nowLive }

// step executes the next pending event if it is due at or before limit.
// It reports false when there is none or the simulator has been stopped.
//
// A heap's popped root is left as a hole for the callback's first push
// into that heap to fill from the root down (AtArg), which saves the sift
// of the last slot that removing the root would cost; if the callback
// pushes nothing there, the hole is closed the ordinary way when it
// returns. A popped event's hole is the only one that can be open.
func (s *Simulator) step(limit Time) bool {
	sl := s.nowOr(s.heapHead()) // head()
	if s.stopped || sl == nil || sl.when > limit {
		return false
	}
	when, ev := sl.when, sl.ev
	var h *heap4
	if ev.index < 0 {
		s.retireNow(s.nowHead)
	} else {
		h = s.heapOf(ev)
		h.hole = true
	}
	s.now = when
	s.Processed++
	// Release before running: the callback may itself schedule (reusing
	// this event), and any stale Timer handle is already invalidated.
	fn, arg := ev.fn, ev.arg
	s.release(ev)
	fn(arg)
	if h != nil && h.hole {
		h.closeHole()
	}
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for s.step(maxTime) {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain queued.
func (s *Simulator) RunUntil(t Time) {
	s.stopped = false
	for s.step(t) {
	}
	if !s.stopped && t > s.now {
		s.now = t
	}
}

// RunFor executes events for the next d of virtual time.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// PeekTime reports the timestamp of the earliest pending event. The second
// return is false when the queue is empty. A sharded engine's runners
// report it at the end of each window, for the next window's floor.
func (s *Simulator) PeekTime() (Time, bool) {
	s.closeHoles()
	sl := s.head()
	if sl == nil {
		return 0, false
	}
	return sl.when, true
}

// runThrough executes every event with timestamp at or before last and
// stops without advancing the clock past the last executed event. It is
// the window-execution primitive of the sharded engine: a shard runs its
// slice of a window through the window's last instant, leaving later
// events queued for later windows.
func (s *Simulator) runThrough(last Time) {
	s.stopped = false
	for s.step(last) {
	}
}

// AdvanceTo moves the clock forward to t without executing anything.
// Moving backward is a no-op, and the clock stops at the earliest pending
// event if that is due before t: nothing ever waits in the queue behind the
// clock, so executing an event never moves the clock backward. The sharded
// coordinator uses it to bring every shard's clock to the common horizon
// after the last window.
func (s *Simulator) AdvanceTo(t Time) {
	s.closeHoles()
	if sl := s.head(); sl != nil && sl.when < t {
		t = sl.when
	}
	if t > s.now {
		s.now = t
	}
}

// Ticker invokes fn every interval until Stop is called. The first
// invocation happens one interval from now. The ticker carries everything
// its next arming needs, so each tick reschedules through AtArg with the
// ticker itself as the argument and allocates nothing. A Ticker may be a
// field of the struct that owns it, armed with StartTicker; Tick makes one
// of its own.
type Ticker struct {
	stop bool
	ev   Timer

	s        *Simulator
	interval Duration
	jitter   Duration
	rng      *rand.Rand
	fn       func(any)
	arg      any
}

// Stop halts the ticker; the pending tick is cancelled.
func (t *Ticker) Stop() {
	t.stop = true
	t.ev.Cancel()
}

// arm schedules the next tick: one jitter draw (when jitter is positive)
// and one event.
func (t *Ticker) arm() {
	d := t.interval
	if t.jitter > 0 {
		d += Duration(t.rng.Int63n(int64(2*t.jitter))) - t.jitter
		if d < Nanosecond {
			d = Nanosecond
		}
	}
	t.ev = t.s.AtArg(t.s.now.Add(d), tickerFire, t)
}

// tickerFire is the package-level tick callback (see AtArg).
func tickerFire(arg any) {
	t := arg.(*Ticker)
	if t.stop {
		return
	}
	t.fn(t.arg)
	if !t.stop {
		t.arm()
	}
}

// Tick schedules fn to run every interval of virtual time. Jitter, when
// positive, uniformly perturbs each interval by ±jitter to avoid lock-step
// synchronization across many nodes.
func (s *Simulator) Tick(interval, jitter Duration, fn func()) *Ticker {
	t := new(Ticker)
	s.StartTicker(t, interval, jitter, nil, callFunc, fn)
	return t
}

// StartTicker arms t, which its owner embeds, to call fn(arg) every interval,
// with Tick's jitter draw and order: the first tick one jittered interval
// from now, each later one armed after fn returns. A non-nil rng supplies
// the jitter instead of the simulator's shared RNG, keeping a node's protocol
// jitter independent of the global draw sequence (and so identical across
// shard counts). With a package-level fn and a pointer arg (the owner, say)
// neither the arming nor a tick allocates.
// Whatever t held before is overwritten: a ticker that is still running must
// be stopped first.
func (s *Simulator) StartTicker(t *Ticker, interval, jitter Duration, rng *rand.Rand, fn func(any), arg any) {
	if rng == nil {
		rng = s.rng
	}
	*t = Ticker{s: s, interval: interval, jitter: jitter, rng: rng, fn: fn, arg: arg}
	t.arm()
}
