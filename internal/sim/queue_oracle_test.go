package sim

import "container/heap"

// oracleEvent is one pending event of the reference queue. id doubles as
// the tie-breaking sequence number: the model hands ids out in scheduling
// order, exactly as the Simulator hands out seq.
type oracleEvent struct {
	when     Time
	id       uint64
	index    int  // heap index, -1 while not pending
	reserved bool // a reserved key: pushed when armed, not when made
	effect   effect
}

// eventHeap is the queue the engine used before the 4-ary slot heap: a
// binary heap of event pointers driven by container/heap, ordered by
// (when, seq). It stays as the oracle the property tests and the fuzz
// target compare pop order against.
type eventHeap []*oracleEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].id < h[j].id
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*oracleEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// oracleSim is the reference Simulator over eventHeap: the clock, the
// clamp-to-now rule, Stop, the run primitives (runBefore, the reference of
// runThrough(t-1), with the loop of its own the engine had when the heap
// was its only queue), and the model's effects (effect.apply, which it
// shares with the Simulator under test), nothing else.
type oracleSim struct {
	now     Time
	queue   eventHeap
	events  []*oracleEvent // by id, pending or not
	popped  []popRec
	stopped bool
}

// popRec is one executed event: the clock it ran at and its id (= seq).
type popRec struct {
	when Time
	id   uint64
}

func (o *oracleSim) clock() Time    { return o.now }
func (o *oracleSim) scheduled() int { return len(o.events) }
func (o *oracleSim) stop()          { o.stopped = true }

// schedule ignores form: At, AtArg and After are one operation here.
func (o *oracleSim) schedule(_ uint8, t Time, eff effect) {
	if t < o.now {
		t = o.now
	}
	ev := &oracleEvent{when: t, id: uint64(len(o.events)), effect: eff}
	o.events = append(o.events, ev)
	heap.Push(&o.queue, ev)
}

// reserve hands out the next id, as schedule would, and pushes nothing: the
// event enters the heap, with that id, when it is armed.
func (o *oracleSim) reserve(t Time, eff effect) {
	if t < o.now {
		t = o.now
	}
	ev := &oracleEvent{when: t, id: uint64(len(o.events)), index: -1, reserved: true, effect: eff}
	o.events = append(o.events, ev)
}

func (o *oracleSim) armable() []uint64 {
	var ids []uint64
	for _, ev := range o.events {
		if ev.reserved && ev.index < 0 && !passed(ev.when, ev.id, o.now, o.popped) {
			ids = append(ids, ev.id)
		}
	}
	return ids
}

func (o *oracleSim) arm(id uint64) { heap.Push(&o.queue, o.events[id]) }

func (o *oracleSim) cancel(id uint64) bool {
	ev := o.events[id]
	if ev.index < 0 {
		return false
	}
	heap.Remove(&o.queue, ev.index)
	return true
}

// step runs the earliest event unless the run is stopped, nothing is
// pending or the event lies beyond limit.
func (o *oracleSim) step(limit Time) bool {
	if o.stopped || len(o.queue) == 0 || o.queue[0].when > limit {
		return false
	}
	ev := heap.Pop(&o.queue).(*oracleEvent)
	o.now = ev.when
	o.popped = append(o.popped, popRec{ev.when, ev.id})
	ev.effect.apply(o)
	return true
}

func (o *oracleSim) run() {
	o.stopped = false
	for o.step(maxTime) {
	}
}

func (o *oracleSim) runUntil(t Time) {
	o.stopped = false
	for o.step(t) {
	}
	if !o.stopped && t > o.now {
		o.now = t
	}
}

func (o *oracleSim) runBefore(t Time) {
	o.stopped = false
	for !o.stopped && len(o.queue) > 0 && o.queue[0].when < t {
		o.step(maxTime)
	}
}

func (o *oracleSim) advanceTo(t Time) {
	if len(o.queue) > 0 && o.queue[0].when < t {
		t = o.queue[0].when
	}
	if t > o.now {
		o.now = t
	}
}
