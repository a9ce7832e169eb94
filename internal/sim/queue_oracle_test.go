package sim

import "container/heap"

// oracleEvent is one pending event of the reference queue. id doubles as
// the tie-breaking sequence number: the model hands ids out in scheduling
// order, exactly as the Simulator hands out seq.
type oracleEvent struct {
	when   Time
	id     uint64
	index  int // heap index, -1 once popped or removed
	effect effect
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
// clamp-to-now rule, the three run primitives and the model's effects
// (see queueModel.fire, its Simulator-side twin), nothing else.
type oracleSim struct {
	now    Time
	queue  eventHeap
	events []*oracleEvent // by id, pending or not
	popped []popRec
}

// popRec is one executed event: the clock it ran at and its id (= seq).
type popRec struct {
	when Time
	id   uint64
}

func (o *oracleSim) schedule(t Time, eff effect) {
	if t < o.now {
		t = o.now
	}
	ev := &oracleEvent{when: t, id: uint64(len(o.events)), effect: eff}
	o.events = append(o.events, ev)
	heap.Push(&o.queue, ev)
}

func (o *oracleSim) cancel(id uint64) bool {
	ev := o.events[id]
	if ev.index < 0 {
		return false
	}
	heap.Remove(&o.queue, ev.index)
	return true
}

func (o *oracleSim) step() {
	ev := heap.Pop(&o.queue).(*oracleEvent)
	o.now = ev.when
	o.popped = append(o.popped, popRec{ev.when, ev.id})
	if ev.effect.kind&1 != 0 {
		o.schedule(o.now+offset(ev.effect.x), effect{})
	}
	if ev.effect.kind&2 != 0 {
		o.cancel(uint64(ev.effect.x) * 7 % uint64(len(o.events)))
	}
}

func (o *oracleSim) runUntil(t Time) {
	for len(o.queue) > 0 && o.queue[0].when <= t {
		o.step()
	}
	if t > o.now {
		o.now = t
	}
}

func (o *oracleSim) runBefore(t Time) {
	for len(o.queue) > 0 && o.queue[0].when < t {
		o.step()
	}
}
