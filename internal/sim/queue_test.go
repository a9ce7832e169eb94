package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// effect is what an event does when it fires, besides being logged: the
// queue is mutated from inside callbacks at least as often as from outside.
type effect struct {
	// kind: bit 0 schedule a child, bit 1 cancel some timer, bit 2 Stop the
	// run, bit 3 a near event before the child, bit 4 arm a reserved key
	// first of all, bit 5 reserve a key.
	kind  uint8
	x     uint8
	depth uint8 // generations of children after the first that carry the effect on
}

// effectTarget is what an effect acts through: the Simulator under test
// (queueModel) or the oracle, so the two cannot drift apart.
type effectTarget interface {
	clock() Time
	scheduled() int
	schedule(form uint8, t Time, eff effect)
	cancel(id uint64) bool
	stop()
	// reserve takes the next id as a key due at t (Reserve), with the
	// effect its event will have once armed.
	reserve(t Time, eff effect)
	// armable lists, in reservation order, the reserved ids arm may take:
	// not pending, and not passed by the run (see passed).
	armable() []uint64
	// arm schedules a reserved id at its key (AtKey).
	arm(id uint64)
}

// passed reports whether the run has passed the key (when, id): the clock
// is beyond it, or the last event to fire came after it. Arming such a key
// cannot fire it where AtArg at reservation time would have, so nothing
// arms it.
func passed(when Time, id uint64, now Time, popped []popRec) bool {
	if when < now {
		return true
	}
	if n := len(popped); n > 0 {
		p := popped[n-1]
		return when < p.when || (when == p.when && id <= p.id)
	}
	return false
}

// armOne arms the x-th armable reservation, if there is one.
func armOne(q effectTarget, x uint8) {
	if ids := q.armable(); len(ids) > 0 {
		q.arm(ids[int(x)%len(ids)])
	}
}

func (e effect) apply(q effectTarget) {
	if e.kind&16 != 0 {
		// Before anything else, so that a key landing in the heap this
		// event popped from fills its replace-top hole.
		armOne(q, e.x)
	}
	if e.kind&32 != 0 {
		q.reserve(q.clock()+offset(e.x*5+3), effect{kind: e.kind & 2, x: e.x + 1})
	}
	if e.kind&8 != 0 {
		// Into the now queue or the soon heap: a far child after it must
		// still fill the hole its timer left, not this push.
		q.schedule(e.x, q.clock()+offset(e.x&7), effect{})
	}
	if e.kind&1 != 0 {
		child := effect{}
		if e.depth > 0 {
			// A chain of descendants, three offsets in eight at or before
			// now: same-instant pipelines running inside one callback tree.
			child = effect{kind: e.kind & 3, x: e.x*37 + 11, depth: e.depth - 1}
		}
		q.schedule(e.x, q.clock()+offset(e.x), child)
	}
	if e.kind&2 != 0 {
		q.cancel(uint64(e.x) * 7 % uint64(q.scheduled()))
	}
	if e.kind&4 != 0 {
		q.stop()
	}
}

// queueModel drives a Simulator and the container/heap oracle through the
// same program and holds them together after every operation.
type queueModel struct {
	s       *Simulator
	o       *oracleSim
	handles []Timer // by id; the Simulator must hand out seq == id
	resv    []reservation
	got     []popRec
	checked int // prefix of got already compared with the oracle's pops
	err     error
}

type firing struct {
	id  uint64
	eff effect
}

// reservation is a key the model reserved, with what its event does.
type reservation struct {
	id  uint64
	key Key
	eff effect
}

// offset maps a program byte to a scheduling distance: mostly a handful of
// near values around zero, so equal timestamps and past (clamped) times are
// the norm, with an occasional event further ahead: 224…239 in the soon
// heap, 240…255 a standing timer in the timer heap.
func offset(x uint8) Time {
	switch {
	case x >= 240:
		return Time(soonSpan) + Time(x)
	case x >= 224:
		return 1000 + Time(x)
	}
	return Time(x%8) - 2
}

func (m *queueModel) failf(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

func (m *queueModel) clock() Time           { return m.s.Now() }
func (m *queueModel) scheduled() int        { return len(m.handles) }
func (m *queueModel) cancel(id uint64) bool { return m.handles[id].Cancel() }
func (m *queueModel) stop()                 { m.s.Stop() }

// fire is the Simulator-side callback of event id.
func (m *queueModel) fire(id uint64, eff effect) {
	m.got = append(m.got, popRec{m.s.Now(), id})
	eff.apply(m)
}

func (m *queueModel) fireArg(arg any) {
	f := arg.(firing)
	m.fire(f.id, f.eff)
}

// slotOf finds a pending timer's slot in whichever home holds it.
func (m *queueModel) slotOf(h Timer) slot {
	if i := h.ev.index; i < 0 {
		return m.s.nowq[^i]
	}
	return m.s.heapOf(h.ev).slots[h.ev.index]
}

// homeOf names the home of a pending event.
func homeOf(e *event) string {
	switch {
	case e.index < 0:
		return "now queue"
	case e.soon:
		return "soon heap"
	}
	return "timer heap"
}

// heapBroken reports the first broken invariant of h, whose events must
// carry soon as their home flag, or "" when all hold: no hole is open,
// every slot's event points back at the slot and names this heap, and no
// slot fires before its parent.
func heapBroken(h *heap4, soon bool) string {
	if h.hole {
		return "a hole is open"
	}
	for i := range h.slots {
		sl := &h.slots[i]
		switch {
		case int(sl.ev.index) != i:
			return fmt.Sprintf("slot %d holds an event with index %d", i, sl.ev.index)
		case sl.ev.soon != soon:
			return fmt.Sprintf("slot %d holds an event of the %s", i, homeOf(sl.ev))
		case i > 0 && sl.before(&h.slots[(i-1)/4]):
			return fmt.Sprintf("slot %d fires before its parent %d", i, (i-1)/4)
		}
	}
	return ""
}

// heapsBroken checks both heaps with heapBroken.
func heapsBroken(s *Simulator) string {
	if msg := heapBroken(&s.queue, false); msg != "" {
		return "timer heap: " + msg
	}
	if msg := heapBroken(&s.soon, true); msg != "" {
		return "soon heap: " + msg
	}
	return ""
}

// schedule schedules on the Simulator through one of its three forms and
// checks the new slot carries the expected key in the expected home: the
// now queue exactly when the event is for the current instant, the soon
// heap when it is due less than soonSpan ahead, the timer heap otherwise.
func (m *queueModel) schedule(form uint8, t Time, eff effect) {
	id := uint64(len(m.handles))
	now := m.s.Now()
	var h Timer
	switch form % 3 {
	case 0:
		h = m.s.At(t, func() { m.fire(id, eff) })
	case 1:
		h = m.s.AtArg(t, m.fireArg, firing{id, eff})
	case 2:
		h = m.s.After(t.Sub(now), func() { m.fire(id, eff) })
	}
	m.handles = append(m.handles, h)
	if t < now {
		t = now
	}
	if sl := m.slotOf(h); sl.ev != h.ev || sl.seq != id || sl.when != t {
		m.failf("event %d scheduled at %d sits in slot {when %d, seq %d}", id, t, sl.when, sl.seq)
	}
	want := "timer heap"
	if t == now {
		want = "now queue"
	} else if t.Sub(now) < soonSpan {
		want = "soon heap"
	}
	if got := homeOf(h.ev); got != want {
		m.failf("event %d scheduled at %d with the clock at %d: in the %s, want the %s", id, t, now, got, want)
	}
}

func (m *queueModel) reserve(t Time, eff effect) {
	id := uint64(len(m.handles))
	k := m.s.Reserve(t)
	if t < m.s.Now() {
		t = m.s.Now()
	}
	if k.seq != id || k.When != t {
		m.failf("Reserve(%d) = {when %d, seq %d}, want {when %d, seq %d}", t, k.When, k.seq, t, id)
	}
	m.handles = append(m.handles, Timer{})
	m.resv = append(m.resv, reservation{id, k, eff})
}

func (m *queueModel) armable() []uint64 {
	var ids []uint64
	for _, r := range m.resv {
		if !m.handles[r.id].Active() && !passed(r.key.When, r.id, m.s.Now(), m.got) {
			ids = append(ids, r.id)
		}
	}
	return ids
}

// arm arms a reservation and checks its slot carries the reserved key in a
// heap: the soon heap when it is due less than soonSpan ahead, the timer
// heap otherwise, never the now queue, whose entries it must leave alone.
func (m *queueModel) arm(id uint64) {
	var r reservation
	for _, r = range m.resv {
		if r.id == id {
			break
		}
	}
	now, nowq := m.s.Now(), append([]slot(nil), m.s.nowq[m.s.nowHead:]...)
	h := m.s.AtKey(r.key, m.fireArg, firing{id, r.eff})
	m.handles[id] = h
	if sl := m.slotOf(h); sl.ev != h.ev || sl.seq != id || sl.when != r.key.When {
		m.failf("reserved key %d armed at %d sits in slot {when %d, seq %d}", id, r.key.When, sl.when, sl.seq)
	}
	want := "timer heap"
	if r.key.When.Sub(now) < soonSpan {
		want = "soon heap"
	}
	if got := homeOf(h.ev); got != want {
		m.failf("reserved key %d armed at %d with the clock at %d: in the %s, want the %s", id, r.key.When, now, got, want)
	}
	if !slices.Equal(nowq, m.s.nowq[m.s.nowHead:]) {
		m.failf("arming reserved key %d changed the now queue", id)
	}
}

// liveNow lists the seq of every live now-queue entry, head first.
func (m *queueModel) liveNow() []uint64 {
	var ids []uint64
	for _, sl := range m.s.nowq[m.s.nowHead:] {
		if sl.ev != nil {
			ids = append(ids, sl.seq)
		}
	}
	return ids
}

// check asserts every invariant that ties the two queues together, and
// those of the Simulator's three homes.
func (m *queueModel) check(op string) {
	if m.err != nil {
		return
	}
	s := m.s
	if msg := heapsBroken(s); msg != "" {
		m.failf("%s: %s", op, msg)
		return
	}
	nq, ns := len(s.queue.slots), len(s.soon.slots)
	live := m.liveNow()
	if nq+ns+len(live) != len(m.o.queue) || s.Pending() != len(m.o.queue) || s.nowLive != len(live) {
		m.failf("%s: %d timer-heap + %d soon-heap slots + %d live now-queue entries (nowLive %d), Pending() %d, oracle holds %d",
			op, nq, ns, len(live), s.nowLive, s.Pending(), len(m.o.queue))
		return
	}
	if s.Now() != m.o.now {
		m.failf("%s: clock %d, oracle %d", op, s.Now(), m.o.now)
	}
	if s.Processed != uint64(len(m.o.popped)) {
		m.failf("%s: Processed %d, oracle popped %d", op, s.Processed, len(m.o.popped))
	}
	pt, ok := s.PeekTime()
	if ok != (len(m.o.queue) > 0) || (ok && pt != m.o.queue[0].when) {
		m.failf("%s: PeekTime() = %d, %v with %d pending in the oracle", op, pt, ok, len(m.o.queue))
	}
	// The now queue: popped prefix and tombstones zeroed, live entries
	// strictly ascending in (when, seq), nothing scheduled past the clock,
	// each pointing back at its slot, the head live, an empty queue rewound.
	var prev *slot
	for i := range s.nowq {
		sl := &s.nowq[i]
		switch {
		case sl.ev == nil:
			if *sl != (slot{}) {
				m.failf("%s: now-queue slot %d is dead but not zeroed: %+v", op, i, *sl)
			}
			if i == s.nowHead {
				m.failf("%s: now-queue head %d is a tombstone", op, i)
			}
		case i < s.nowHead:
			m.failf("%s: now-queue slot %d is live behind the head %d", op, i, s.nowHead)
		default:
			if sl.ev.index != ^int32(i) {
				m.failf("%s: now-queue slot %d holds an event with index %d", op, i, sl.ev.index)
			}
			if sl.when > s.Now() {
				m.failf("%s: now-queue slot %d is due at %d, after the clock %d", op, i, sl.when, s.Now())
			}
			if prev != nil && !prev.before(sl) {
				m.failf("%s: now-queue slot %d (when %d, seq %d) does not fire after its predecessor (when %d, seq %d)",
					op, i, sl.when, sl.seq, prev.when, prev.seq)
			}
			prev = sl
		}
	}
	if len(live) == 0 && (len(s.nowq) != 0 || s.nowHead != 0) {
		m.failf("%s: empty now queue not rewound: len %d, head %d", op, len(s.nowq), s.nowHead)
	}
	for _, sl := range s.nowq[len(s.nowq):cap(s.nowq)] {
		if sl != (slot{}) {
			m.failf("%s: now-queue storage beyond its length pins %+v", op, sl)
		}
	}
	if len(m.handles) != len(m.o.events) {
		m.failf("%s: %d events scheduled, oracle %d", op, len(m.handles), len(m.o.events))
		return
	}
	for id, h := range m.handles {
		if oe := m.o.events[id]; oe.index >= 0 {
			if !h.Active() || h.Time() != oe.when || m.slotOf(h).seq != uint64(id) {
				m.failf("%s: pending timer %d: active %v, time %d want %d", op, id, h.Active(), h.Time(), oe.when)
			}
		} else if h.Active() || h.Time() != 0 {
			m.failf("%s: timer %d fired or cancelled but active %v, time %d", op, id, h.Active(), h.Time())
		}
	}
	if len(m.got) != len(m.o.popped) {
		m.failf("%s: %d events fired, oracle %d", op, len(m.got), len(m.o.popped))
		return
	}
	for ; m.checked < len(m.got); m.checked++ {
		if g, w := m.got[m.checked], m.o.popped[m.checked]; g != w {
			m.failf("%s: pop %d is (when %d, seq %d), oracle (when %d, seq %d)", op, m.checked, g.when, g.id, w.when, w.id)
		}
	}
}

// victim picks the timer a cancel operation aims at: either heap's root
// or last slot, the now queue's head, tail or a middle entry, or any
// timer ever issued.
func (m *queueModel) victim(x uint8, pc int) uint64 {
	q, sq, live := m.s.queue.slots, m.s.soon.slots, m.liveNow()
	switch {
	case x%8 == 0 && len(q) > 0:
		return q[0].seq
	case x%8 == 1 && len(q) > 0:
		return q[len(q)-1].seq
	case x%8 == 2 && len(live) > 0:
		return live[0]
	case x%8 == 3 && len(live) > 0:
		return live[len(live)-1]
	case x%8 == 4 && len(live) > 0:
		return live[len(live)/2]
	case x%8 == 5 && len(sq) > 0:
		return sq[0].seq
	case x%8 == 6 && len(sq) > 0:
		return sq[len(sq)-1].seq
	}
	return (uint64(x)*251 + uint64(pc)) % uint64(len(m.handles))
}

// runQueueProgram interprets prog, two bytes an operation, against both
// queues and reports the first divergence or broken invariant.
func runQueueProgram(prog []byte) error {
	m := &queueModel{s: New(1), o: &oracleSim{}}
	for pc := 0; pc+1 < len(prog) && m.err == nil; pc += 2 {
		op, x := prog[pc], prog[pc+1]
		now := m.s.Now()
		switch op % 8 {
		case 0, 1, 2: // schedule: form and effect from op's bits
			eff := effect{kind: op >> 6, x: x ^ op, depth: op >> 4 & 3}
			if op&8 != 0 && x&16 != 0 {
				eff.kind |= 4
			}
			if op&8 != 0 && x&8 != 0 {
				eff.kind |= 9
			}
			if x&32 != 0 {
				eff.kind |= 16 << (op >> 6 & 1) // arm or reserve from the callback
			}
			m.schedule(op, now+offset(x), eff)
			m.o.schedule(op, now+offset(x), eff)
			m.check("schedule")
		case 3: // reserve a key, or arm one of those reserved
			if op&8 == 0 {
				eff := effect{kind: op>>6 | op>>1&8, x: x ^ op}
				m.reserve(now+offset(x), eff)
				m.o.reserve(now+offset(x), eff)
				m.check("reserve")
				continue
			}
			armOne(m, x)
			armOne(m.o, x)
			m.check("arm")
		case 4: // cancel, and with op's bit 3 re-arm at the same time
			if len(m.handles) == 0 {
				continue
			}
			id := m.victim(x, pc)
			got, want := m.handles[id].Cancel(), m.o.cancel(id)
			if got != want {
				m.failf("Cancel(%d) = %v, oracle %v", id, got, want)
			}
			m.check("cancel")
			if want && op&8 != 0 {
				if m.o.events[id].reserved {
					// A reserved key goes back to its own place.
					m.arm(id)
					m.o.arm(id)
					m.check("re-arm")
					continue
				}
				when := m.o.events[id].when
				m.schedule(op>>4, when, effect{})
				m.o.schedule(op>>4, when, effect{})
				m.check("re-arm")
			}
		case 5: // two times in eight t < now: nothing runs, the clock stays
			t := now + Time(x%8) - 2
			m.s.RunUntil(t)
			m.o.runUntil(t)
			m.check("RunUntil")
		case 6:
			t := now + Time(x%8) - 1
			m.s.RunBefore(t)
			m.o.runBefore(t)
			m.check("RunBefore")
		case 7:
			switch x % 4 {
			case 0, 1:
				if got, want := m.s.step(maxTime), m.o.step(maxTime); got != want {
					m.failf("step() = %v, oracle %v", got, want)
				}
				m.check("step")
			case 2:
				t := now + Time(x>>2%8) - 1
				m.s.AdvanceTo(t)
				m.o.advanceTo(t)
				m.check("AdvanceTo")
			case 3: // Stop from outside a run: step refuses until a run resumes
				m.s.Stop()
				m.o.stop()
				m.check("Stop")
			}
		}
	}
	for m.s.Pending() > 0 && m.err == nil { // a Stop effect ends a Run early
		m.s.Run()
		m.o.run()
		m.check("drain")
	}
	if len(m.o.queue) > 0 {
		m.failf("drained with %d events pending in the oracle", len(m.o.queue))
	}
	return m.err
}

// sameInstant rewrites a random program so that same-instant traffic is
// dense: most schedules land at or before now, most cancels aim at the now
// queue and half of them re-arm, and events run one step at a time so the
// now queue stays populated between operations.
func sameInstant(prog []byte, rng *rand.Rand) {
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, x := &prog[pc], &prog[pc+1]
		switch *op % 8 {
		case 0, 1, 2, 3:
			if rng.Intn(4) > 0 {
				*x = *x&^0xE7 | uint8(rng.Intn(3)) // offset -2, -1 or 0, never far future
			}
		case 4:
			if rng.Intn(4) > 0 {
				*x = *x&^7 | uint8(2+rng.Intn(3))
			}
		case 5, 6:
			if rng.Intn(2) == 0 {
				*op, *x = *op|7, *x&^3 // step
			}
		}
	}
}

// Property: over random interleavings of At/AtArg/After, Cancel, Stop and
// the run primitives — from outside and from inside callbacks — the two
// 4-ary slot heaps and the now queue together pop exactly the
// container/heap oracle's (when, seq) sequence, and each keeps its index,
// order and home invariants after every operation.
func TestQuickQueueMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(prog)
		switch rng.Intn(3) {
		case 0:
			// Bias toward scheduling so the heap grows several levels deep.
			for pc := 0; pc < len(prog); pc += 2 {
				if rng.Intn(3) > 0 {
					prog[pc] &^= 4
				}
			}
		case 1:
			sameInstant(prog, rng)
		}
		if err := runQueueProgram(prog); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(59))}); err != nil {
		t.Fatal(err)
	}
}

// TestNowQueueCases pins the corners of the two-home queue one at a time:
// each case drives a fresh Simulator, reports a broken intermediate
// expectation as a string, and lists the (clock, id) sequence it must fire.
func TestNowQueueCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(s *Simulator, note func(any)) string
		want []popRec
	}{
		{"a heap event and a now-queue event at one instant: the heap one was scheduled first", func(s *Simulator, note func(any)) string {
			s.AtArg(10, func(any) { note(0); s.AtArg(s.Now(), note, 2) }, nil)
			s.AtArg(10, note, 1)
			s.Run()
			return ""
		}, []popRec{{10, 0}, {10, 1}, {10, 2}}},
		{"a now-queue event fires before a later heap timer scheduled first", func(s *Simulator, note func(any)) string {
			s.AtArg(20, note, 0)
			s.AtArg(0, note, 1)
			s.AtArg(-5, note, 2)
			s.Run()
			return ""
		}, []popRec{{0, 1}, {0, 2}, {20, 0}}},
		{"cancel the head, a middle and the tail entry, then re-arm", func(s *Simulator, note func(any)) string {
			s.AtArg(30, note, 9)
			var tm [5]Timer
			for i := range tm {
				tm[i] = s.AtArg(s.Now(), note, i)
			}
			for _, i := range []int{0, 2, 4} {
				if !tm[i].Cancel() || tm[i].Active() || tm[i].Time() != 0 || tm[i].Cancel() {
					return fmt.Sprintf("cancelled timer %d: still active or cancellable", i)
				}
			}
			if s.Pending() != 3 {
				return fmt.Sprintf("Pending() = %d after three cancels, want 3", s.Pending())
			}
			if pt, ok := s.PeekTime(); !ok || pt != 0 {
				return fmt.Sprintf("PeekTime() = %d, %v; want the surviving now-queue entry", pt, ok)
			}
			s.AtArg(s.Now(), note, 5)
			s.AtArg(s.Now(), note, 6)
			s.Run()
			return ""
		}, []popRec{{0, 1}, {0, 3}, {0, 5}, {0, 6}, {30, 9}}},
		{"a cancelled now-queue event's storage is recycled without reviving its handle", func(s *Simulator, note func(any)) string {
			stale := s.AtArg(s.Now(), note, 0)
			stale.Cancel()
			fresh := s.AtArg(Time(Second), note, 1)
			if fresh.ev != stale.ev {
				return "the cancelled event did not return to the pool at once"
			}
			if stale.Active() || stale.Cancel() || !fresh.Active() {
				return "stale handle acts on the recycled event"
			}
			s.Run()
			return ""
		}, []popRec{{Time(Second), 1}}},
		{"Stop in mid-instant leaves the rest of the instant queued for the next run", func(s *Simulator, note func(any)) string {
			s.RunUntil(4)
			s.AtArg(s.Now(), func(any) { note(0); s.Stop() }, nil)
			s.AtArg(s.Now(), note, 1)
			s.AtArg(s.Now(), note, 2)
			s.Run()
			if s.Pending() != 2 || s.Processed != 1 {
				return fmt.Sprintf("after Stop: Pending() %d, Processed %d", s.Pending(), s.Processed)
			}
			if s.step(maxTime) {
				return "step ran an event on a stopped simulator"
			}
			s.Run()
			return ""
		}, []popRec{{4, 0}, {4, 1}, {4, 2}}},
		{"RunUntil and RunBefore short of the clock run nothing", func(s *Simulator, note func(any)) string {
			s.RunUntil(10)
			tm := s.AtArg(3, note, 0) // clamped to now
			if tm.Time() != 10 || tm.ev.index >= 0 {
				return fmt.Sprintf("past-time event: Time() %d, index %d", tm.Time(), tm.ev.index)
			}
			s.RunUntil(5)
			s.RunBefore(10)
			if s.Processed != 0 || s.Now() != 10 || s.Pending() != 1 {
				return fmt.Sprintf("ran %d events, clock %d, pending %d", s.Processed, s.Now(), s.Pending())
			}
			s.RunBefore(11)
			if s.Now() != 10 {
				return fmt.Sprintf("RunBefore moved the clock to %d", s.Now())
			}
			return ""
		}, []popRec{{10, 0}}},
		{"PeekTime with only the now queue populated", func(s *Simulator, note func(any)) string {
			s.RunUntil(7)
			tm := s.AtArg(s.Now(), note, 0)
			if pt, ok := s.PeekTime(); !ok || pt != 7 {
				return fmt.Sprintf("PeekTime() = %d, %v; want 7, true", pt, ok)
			}
			tm.Cancel()
			if pt, ok := s.PeekTime(); ok || s.Pending() != 0 {
				return fmt.Sprintf("PeekTime() = %d, %v with everything cancelled", pt, ok)
			}
			return ""
		}, nil},
		{"AdvanceTo never passes a pending event", func(s *Simulator, note func(any)) string {
			s.AtArg(20, note, 0)
			tm := s.AtArg(s.Now(), note, 1)
			if s.AdvanceTo(50); s.Now() != 0 {
				return fmt.Sprintf("AdvanceTo passed the now queue: clock %d", s.Now())
			}
			tm.Cancel()
			if s.AdvanceTo(50); s.Now() != 20 {
				return fmt.Sprintf("AdvanceTo with a timer due at 20: clock %d", s.Now())
			}
			s.AtArg(s.Now(), note, 2) // same instant as the heap's root, scheduled after it
			s.Run()
			if s.AdvanceTo(50); s.Now() != 50 {
				return fmt.Sprintf("AdvanceTo on an empty queue: clock %d", s.Now())
			}
			return ""
		}, []popRec{{20, 0}, {20, 2}}},
	} {
		s := New(1)
		var got []popRec
		note := func(arg any) { got = append(got, popRec{s.Now(), uint64(arg.(int))}) }
		if msg := tc.run(s, note); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fired %v, want %v", tc.name, got, tc.want)
		}
		if s.Pending() != 0 || len(s.nowq) != 0 || s.nowHead != 0 {
			t.Errorf("%s: left %d pending, now queue len %d head %d", tc.name, s.Pending(), len(s.nowq), s.nowHead)
		}
	}
}

// TestAtKeyCases pins the reserved key one corner at a time: each case
// reserves keys with Reserve, arms them with AtKey, and lists the (clock,
// id) sequence it must fire; an id is the order in which its key or event
// was taken.
func TestAtKeyCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(s *Simulator, note func(any)) string
		want []popRec
	}{
		{"a key armed later fires where AtArg at reservation time would have", func(s *Simulator, note func(any)) string {
			s.AtArg(10, note, 0)
			k := s.Reserve(10)
			s.AtArg(10, note, 2)
			s.AtArg(5, func(any) { note(3); s.AtKey(k, note, 1) }, nil)
			s.Run()
			return ""
		}, []popRec{{5, 3}, {10, 0}, {10, 1}, {10, 2}}},
		{"a key for the current instant goes into the soon heap and leaves the now queue alone", func(s *Simulator, note func(any)) string {
			s.RunUntil(5)
			s.AtArg(s.Now(), note, 0)
			k := s.Reserve(3) // clamped to the clock
			s.AtArg(s.Now(), note, 2)
			if k.When != 5 {
				return fmt.Sprintf("Reserve(3) at 5 is due at %d", k.When)
			}
			nowq := append([]slot(nil), s.nowq...)
			tm := s.AtKey(k, note, 1)
			if homeOf(tm.ev) != "soon heap" || !slices.Equal(nowq, s.nowq) || s.nowLive != 2 || s.Pending() != 3 {
				return fmt.Sprintf("armed in the %s; now queue changed %v, %d live", homeOf(tm.ev), !slices.Equal(nowq, s.nowq), s.nowLive)
			}
			s.Run()
			return ""
		}, []popRec{{5, 0}, {5, 1}, {5, 2}}},
		{"armed from the callback of its heap's root, a key fills the replace-top hole", func(s *Simulator, note func(any)) string {
			var msg string
			late := Time(Second + soonSpan) // a timer-heap distance from the callback
			k := s.Reserve(late + 1)        // before the standing timers: it takes the root
			s.AtArg(Time(Second), func(any) {
				note(1)
				if !s.queue.hole {
					msg = "no hole open in the callback"
					return
				}
				if tm := s.AtKey(k, note, 0); tm.ev.index != 0 || tm.ev.soon || s.queue.hole {
					msg = fmt.Sprintf("the key went to the %s slot %d (hole %v)", homeOf(tm.ev), tm.ev.index, s.queue.hole)
				}
			}, nil)
			for id := 2; id < 7; id++ {
				s.AtArg(late+Time(id), note, id)
			}
			s.Run()
			return msg
		}, []popRec{{Time(Second), 1}, {Time(Second+soonSpan) + 1, 0}, {Time(Second+soonSpan) + 2, 2},
			{Time(Second+soonSpan) + 3, 3}, {Time(Second+soonSpan) + 4, 4}, {Time(Second+soonSpan) + 5, 5}, {Time(Second+soonSpan) + 6, 6}}},
		{"cancelled and armed again, a key keeps its place and fires once", func(s *Simulator, note func(any)) string {
			k := s.Reserve(20)
			s.AtArg(20, note, 1)
			tm := s.AtKey(k, note, 0)
			if !tm.Cancel() || s.Pending() != 1 {
				return fmt.Sprintf("cancel of an armed key: Pending() %d", s.Pending())
			}
			s.AtKey(k, note, 0)
			s.Run()
			return ""
		}, []popRec{{20, 0}, {20, 1}}},
		{"a key due before the clock panics", func(s *Simulator, note func(any)) string {
			k := s.Reserve(3)
			s.RunUntil(10)
			defer func() { recover() }()
			s.AtKey(k, note, 0)
			return "AtKey at a passed instant did not panic"
		}, nil},
	} {
		s := New(1)
		var got []popRec
		note := func(arg any) { got = append(got, popRec{s.Now(), uint64(arg.(int))}) }
		if msg := tc.run(s, note); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fired %v, want %v", tc.name, got, tc.want)
		}
		if s.Pending() != 0 {
			t.Errorf("%s: left %d pending", tc.name, s.Pending())
		}
	}
}

// TestHoleCases pins the replace-top hole (step) one corner at a time, in
// each heap: from the heap under test a callback pops, and it schedules
// off ahead to land in that heap again or other ahead to land in the
// other one. Each case reports a broken intermediate expectation as a
// string and lists the (clock, id) sequence it must fire.
func TestHoleCases(t *testing.T) {
	type heapCase struct {
		name       string
		soon       bool
		off, other Time
	}
	// standing schedules ids from..to-1, 10·off+id ahead: later than
	// anything a case's callbacks schedule, in the heap under test.
	standing := func(s *Simulator, hc heapCase, note func(any), from, to int) []Timer {
		var tm []Timer
		for id := from; id < to; id++ {
			tm = append(tm, s.AtArg(10*hc.off+Time(id), note, id))
		}
		return tm
	}
	later := func(hc heapCase, from, to int) []popRec {
		var want []popRec
		for id := from; id < to; id++ {
			want = append(want, popRec{10*hc.off + Time(id), uint64(id)})
		}
		return want
	}
	for _, tc := range []struct {
		name string
		run  func(s *Simulator, h *heap4, hc heapCase, note func(any)) string
		want func(hc heapCase) []popRec
	}{
		{"pop, then push into the same heap: the new slot takes the root and no other slot moves", func(s *Simulator, h *heap4, hc heapCase, note func(any)) string {
			var msg string
			s.AtArg(hc.off, func(any) {
				note(0)
				rest := append([]slot(nil), h.slots[1:]...)
				if !h.hole || len(rest) != 8 {
					msg = fmt.Sprintf("in the callback: hole %v, %d slots behind it", h.hole, len(rest))
					return
				}
				tm := s.AtArg(s.Now()+hc.off, note, 9)
				if tm.ev.index != 0 || h.hole || !reflect.DeepEqual(h.slots[1:], rest) {
					msg = fmt.Sprintf("the push went to slot %d (hole %v); the others moved: %v",
						tm.ev.index, h.hole, !reflect.DeepEqual(h.slots[1:], rest))
				}
			}, nil)
			standing(s, hc, note, 1, 9)
			s.Run()
			return msg
		}, func(hc heapCase) []popRec {
			return append([]popRec{{hc.off, 0}, {2 * hc.off, 9}}, later(hc, 1, 9)...)
		}},
		{"pop, then push into the other heap and the now queue: the hole is closed when the callback returns", func(s *Simulator, h *heap4, hc heapCase, note func(any)) string {
			var msg string
			s.AtArg(hc.off, func(any) {
				note(0)
				s.AtArg(s.Now()+hc.other, note, 6)
				if !h.hole {
					msg = "a push into the other heap filled the hole"
				}
				s.AtArg(s.Now(), note, 7)
			}, nil)
			standing(s, hc, note, 1, 6)
			s.step(maxTime)
			if h.hole || len(h.slots) != 5 || s.Pending() != 7 {
				return fmt.Sprintf("after the callback: hole %v, %d slots, Pending() %d", h.hole, len(h.slots), s.Pending())
			}
			if m := heapsBroken(s); m != "" {
				return m
			}
			s.Run()
			return msg
		}, func(hc heapCase) []popRec {
			first := []popRec{{hc.off, 0}, {hc.off, 7}}
			if hc.soon { // the other push is a standing timer: it fires last
				return append(append(first, later(hc, 1, 6)...), popRec{hc.off + hc.other, 6})
			}
			return append(append(first, popRec{hc.off + hc.other, 6}), later(hc, 1, 6)...)
		}},
		{"push into the other heap, then into the same heap: the second push fills the hole", func(s *Simulator, h *heap4, hc heapCase, note func(any)) string {
			var msg string
			s.AtArg(hc.off, func(any) {
				note(0)
				s.AtArg(s.Now()+hc.other, note, 6)
				tm := s.AtArg(s.Now()+hc.off, note, 7)
				if tm.ev.index != 0 || h.hole {
					msg = fmt.Sprintf("the same-heap push went to slot %d (hole %v)", tm.ev.index, h.hole)
				}
			}, nil)
			standing(s, hc, note, 1, 6)
			s.Run()
			return msg
		}, func(hc heapCase) []popRec {
			first := []popRec{{hc.off, 0}, {2 * hc.off, 7}}
			if hc.soon {
				return append(append(first, later(hc, 1, 6)...), popRec{hc.off + hc.other, 6})
			}
			return append([]popRec{{hc.off, 0}, {hc.off + hc.other, 6}, {2 * hc.off, 7}}, later(hc, 1, 6)...)
		}},
		{"Pending, Timer.Time, Cancel of the slot closing moves, and Stop inside the callback", func(s *Simulator, h *heap4, hc heapCase, note func(any)) string {
			var msg string
			var tm []Timer
			popped := s.AtArg(hc.off, func(any) {
				note(0)
				switch {
				case !h.hole:
					msg = "no hole in the callback"
				case s.Pending() != 8:
					msg = fmt.Sprintf("Pending() = %d with a hole open, want 8", s.Pending())
				}
				for i, x := range tm {
					if x.Time() != 10*hc.off+Time(i+1) {
						msg = fmt.Sprintf("timer %d: Time() = %d with a hole open", i+1, x.Time())
					}
				}
				// The last slot (id 8) is the one closing the hole moves.
				if !tm[7].Cancel() || s.Pending() != 7 {
					msg = fmt.Sprintf("Cancel of the last slot's timer with a hole open: Pending() = %d", s.Pending())
				}
				if m := heapsBroken(s); m != "" {
					msg = "after Cancel: " + m
				}
				s.Stop()
			}, nil)
			tm = standing(s, hc, note, 1, 9)
			s.Run()
			if popped.Active() || s.Pending() != 7 || h.hole {
				return fmt.Sprintf("after Stop: popped timer active %v, Pending() %d, hole %v", popped.Active(), s.Pending(), h.hole)
			}
			s.Run()
			return msg
		}, func(hc heapCase) []popRec {
			return append([]popRec{{hc.off, 0}}, later(hc, 1, 8)...)
		}},
		{"AdvanceTo and PeekTime inside callbacks see past the hole", func(s *Simulator, h *heap4, hc heapCase, note func(any)) string {
			var msg string
			s.AtArg(hc.off, func(any) {
				note(0)
				if s.AdvanceTo(s.Now() + 1); h.hole || s.Now() != hc.off+1 {
					msg = fmt.Sprintf("AdvanceTo: hole %v, clock %d, want %d", h.hole, s.Now(), hc.off+1)
				}
			}, nil)
			s.AtArg(hc.off+2, func(any) {
				note(1)
				if pt, ok := s.PeekTime(); !ok || pt != 10*hc.off+2 || h.hole {
					msg = fmt.Sprintf("PeekTime() = %d, %v (hole %v), want %d", pt, ok, h.hole, 10*hc.off+2)
				}
				s.AtArg(s.Now()+hc.off, note, 5)
			}, nil)
			standing(s, hc, note, 2, 5)
			s.Run()
			return msg
		}, func(hc heapCase) []popRec {
			return append([]popRec{{hc.off, 0}, {hc.off + 2, 1}, {2*hc.off + 2, 5}}, later(hc, 2, 5)...)
		}},
		{"a one-slot heap popped and refilled, then popped and left empty", func(s *Simulator, h *heap4, hc heapCase, note func(any)) string {
			var msg string
			s.AtArg(hc.off, func(any) {
				note(0)
				if tm := s.AtArg(s.Now()+hc.off, note, 1); tm.ev.index != 0 || h.hole || len(h.slots) != 1 {
					msg = fmt.Sprintf("refill: slot %d, hole %v, %d slots", tm.ev.index, h.hole, len(h.slots))
				}
			}, nil)
			if s.step(maxTime); msg == "" && (s.Pending() != 1 || len(h.slots) != 1) {
				msg = fmt.Sprintf("after the refill: Pending() %d, %d slots", s.Pending(), len(h.slots))
			}
			if s.step(maxTime); msg == "" && (s.Pending() != 0 || len(h.slots) != 0 || h.hole) {
				msg = fmt.Sprintf("after the last pop: Pending() %d, %d slots, hole %v", s.Pending(), len(h.slots), h.hole)
			}
			return msg
		}, func(hc heapCase) []popRec { return []popRec{{hc.off, 0}, {2 * hc.off, 1}} }},
	} {
		for _, hc := range []heapCase{
			{"soon", true, 1, Time(soonSpan)},
			{"timer", false, Time(soonSpan), 1},
		} {
			s := New(1)
			h := &s.queue
			if hc.soon {
				h = &s.soon
			}
			var got []popRec
			note := func(arg any) { got = append(got, popRec{s.Now(), uint64(arg.(int))}) }
			if msg := tc.run(s, h, hc, note); msg != "" {
				t.Errorf("%s heap: %s: %s", hc.name, tc.name, msg)
			}
			if want := tc.want(hc); !reflect.DeepEqual(got, want) {
				t.Errorf("%s heap: %s: fired %v, want %v", hc.name, tc.name, got, want)
			}
			if msg := heapsBroken(s); msg != "" || s.Pending() != 0 {
				t.Errorf("%s heap: %s: left %d pending: %s", hc.name, tc.name, s.Pending(), msg)
			}
		}
	}
}

// TestNowQueueBounded: a frozen-clock pipeline that never lets the now
// queue drain — the shape of closed-loop packet forwarding — processes a
// million events in a few slots of storage, with and without cancellations
// leaving tombstones behind.
func TestNowQueueBounded(t *testing.T) {
	for _, cancels := range []bool{false, true} {
		s := New(1)
		s.AtArg(Time(Hour), nop, nil) // a standing timer: the heap is not empty either
		s.AtArg(s.Now(), nop, nil)    // always one event pending at now
		for i := 0; i < 1<<20; i++ {
			tm := s.AtArg(s.Now(), nop, nil)
			if cancels && i%3 == 0 {
				s.AtArg(s.Now(), nop, nil)
				tm.Cancel()
			}
			s.step(maxTime)
		}
		if s.Now() != 0 || s.Pending() != 2 || s.Processed != 1<<20 {
			t.Fatalf("cancels %v: clock %d, pending %d, processed %d", cancels, s.Now(), s.Pending(), s.Processed)
		}
		if cap(s.nowq) > 8 {
			t.Errorf("cancels %v: now queue grew to %d slots for at most 3 live entries", cancels, cap(s.nowq))
		}
	}
}

// TestQueueCancelPositions pins the indexed removal's corner cases on a
// heap three levels deep, in each of the two heaps: the root, the last
// slot, a slot whose replacement must sift down and one whose replacement
// must sift up. Keys are inserted so that none sifts on the way in: slot i
// holds the i-th key. They lie within soonSpan, so soonSpan added to each
// takes the table into the timer heap.
func TestQueueCancelPositions(t *testing.T) {
	ascending := make([]Time, 64)
	for i := range ascending {
		ascending[i] = Time(10 * (i + 1))
	}
	// Slot 1 and its children 5..8 are late, the last slot (20, under slot
	// 4) is early: moved into slot 5 it fires before slot 1 and must rise.
	lateSubtree := []Time{1, 100, 2, 3, 4, 101, 102, 103, 104, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	for _, home := range []struct {
		name string
		base Time
		soon bool
	}{{"soon", 0, true}, {"timer", Time(soonSpan), false}} {
		for _, tc := range []struct {
			name string
			keys []Time
			slot int
		}{
			{"root", ascending, 0},
			{"last", ascending, len(ascending) - 1},
			{"down", ascending, 1},
			{"up", lateSubtree, 5},
		} {
			name := home.name + "/" + tc.name
			s := New(1)
			h := &s.queue
			if home.soon {
				h = &s.soon
			}
			var fired []int
			note := func(arg any) { fired = append(fired, arg.(int)) }
			timers := make([]Timer, len(tc.keys))
			for i, when := range tc.keys {
				timers[i] = s.AtArg(home.base+when, note, i)
				if timers[i].ev.index != int32(i) || timers[i].ev.soon != home.soon {
					t.Fatalf("%s: key %d sifted on insertion or landed in the %s", name, i, homeOf(timers[i].ev))
				}
			}
			if last := &h.slots[len(h.slots)-1]; tc.name == "up" && !last.before(&h.slots[(tc.slot-1)/4]) {
				t.Fatal("up: the last slot would not rise from the victim's position")
			}
			if !timers[tc.slot].Cancel() || s.Pending() != len(tc.keys)-1 {
				t.Fatalf("%s: Cancel of a pending timer failed", name)
			}
			if msg := heapBroken(h, home.soon); msg != "" {
				t.Fatalf("%s: after Cancel: %s", name, msg)
			}
			s.Run()
			if len(fired) != len(tc.keys)-1 {
				t.Fatalf("%s: fired %d of %d", name, len(fired), len(tc.keys)-1)
			}
			for i, id := range fired {
				if id == tc.slot {
					t.Fatalf("%s: cancelled event fired", name)
				}
				if i > 0 && tc.keys[id] < tc.keys[fired[i-1]] {
					t.Fatalf("%s: events fired out of order: %v", name, fired)
				}
			}
		}
	}
}

// FuzzEventQueue feeds arbitrary programs to the same model.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 4, 0, 5, 7})
	f.Add([]byte{0x40, 3, 0x80, 9, 0xC1, 240, 7, 0, 4, 1, 6, 3, 4, 2, 5, 7})
	rng := rand.New(rand.NewSource(61))
	seed := make([]byte, 512)
	rng.Read(seed)
	f.Add(seed)
	// Same-instant programs. By hand: five events at now (one with a child
	// chain, one that Stops the run), cancel the now queue's head, middle
	// and tail with a re-arm each, run short of the clock, step, AdvanceTo,
	// a heap timer one tick ahead whose firing schedules at its own instant.
	f.Add([]byte{0x01, 2, 0x71, 2, 0x09, 0x12, 0x00, 1, 0x02, 0, 0x0C, 2, 0x1C, 4, 0x2C, 3,
		5, 0, 6, 0, 7, 0, 7, 6, 0x41, 3, 0x01, 3, 7, 1, 7, 0, 7, 3, 7, 0, 5, 7})
	dense := make([]byte, 512)
	rng.Read(dense)
	sameInstant(dense, rng)
	f.Add(dense)
	// Far timers, by hand: seven standing ones and two in the soon heap,
	// then timers whose callbacks schedule near and then far (into the
	// soon heap, into the now queue), near and near, and near twice with
	// a cancel in between, all while the timer heap's hole is open; steps,
	// a RunBefore and a cancel + re-arm of the timer heap's root between.
	f.Add([]byte{0x00, 0xF0, 0x01, 0xF1, 0x02, 0xF2, 0x00, 0xF4, 0x01, 0xF5, 0x02, 0xF6, 0x00, 0xF7,
		0x00, 0xE0, 0x01, 0xE5, 0x08, 0xFB, 0x09, 0xF8, 0x4A, 0xFC, 0x88, 0xF9,
		7, 0, 7, 0, 0x0C, 0, 7, 0, 6, 7, 7, 0, 7, 0, 7, 0, 7, 0})
	// Reserved keys, by hand: a key for the current instant between two
	// now-queue events, two standing ones, arms of each, a standing timer
	// whose callback arms into its heap's hole, cancels of the timer heap's
	// root with a re-arm at the same key, steps and a drain.
	f.Add([]byte{0x00, 2, 0x03, 2, 0x00, 2, 0x03, 0xF0, 0x03, 0xF3, 0x0B, 0, 0x00, 0xF1,
		0x0B, 1, 0x0B, 2, 0x0C, 0, 0x1C, 0, 7, 0, 7, 0, 0x03, 0xE2, 7, 0, 0x0B, 0, 7, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		if err := runQueueProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDeepQueue times the queue's traffic patterns under a standing
// population of far-future timers, at three depths. The two that go through
// the timer heap cost log₄(depth); hop, the same-instant pattern, goes
// through the now queue and flight through the soon heap, and neither may
// depend on the depth:
//
//	hop       schedule an event for the current instant and pop it
//	          (a packet delivery at a frozen clock);
//	hop+timer the same, every fourth schedule a near-future timer
//	          replacing the previous one (a transfer re-arming its
//	          retransmission timer): the now queue and the soon heap
//	          live at once;
//	rearm     pop the minimum and push it back one interval ahead
//	          (a keepalive or ticker firing);
//	cancel    remove a random standing timer and arm it again
//	          (a ping timeout reset by the pong);
//	flight    pop one of flightPackets events 0.3 to 35 ms ahead, whose
//	          callback schedules the next one as far ahead (a packet's
//	          delivery scheduling its end of service, on a WAN path):
//	          the standing timers lie beyond every clock the stream
//	          reaches, so only packet events pop.
func BenchmarkDeepQueue(b *testing.B) {
	for _, depth := range []int{1 << 10, 1 << 16, 1 << 20} {
		standingFrom := func(from Time) (*Simulator, []Timer) {
			s := New(1)
			timers := make([]Timer, depth)
			for i := range timers {
				timers[i] = s.AtArg(from+Time(s.Rand().Int63n(int64(standingInterval))), rearmNop, s)
			}
			return s, timers
		}
		standing := func() (*Simulator, []Timer) { return standingFrom(Time(Second)) }
		b.Run(fmt.Sprintf("hop/%d", depth), func(b *testing.B) {
			s, _ := standing()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AtArg(s.now, nop, nil)
				s.step(maxTime)
			}
		})
		b.Run(fmt.Sprintf("hop+timer/%d", depth), func(b *testing.B) {
			s, _ := standing()
			var rto Timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%4 == 3 {
					rto.Cancel()
					rto = s.AtArg(s.now.Add(Millisecond), nop, nil)
					continue
				}
				s.AtArg(s.now, nop, nil)
				s.step(maxTime)
			}
		})
		b.Run(fmt.Sprintf("rearm/%d", depth), func(b *testing.B) {
			s, _ := standing()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step(maxTime)
			}
		})
		b.Run(fmt.Sprintf("cancel/%d", depth), func(b *testing.B) {
			s, timers := standing()
			b.ReportAllocs()
			b.ResetTimer()
			x := uint64(1)
			for i := 0; i < b.N; i++ {
				x = splitmix64(x)
				tm := &timers[x%uint64(depth)]
				when := tm.Time()
				tm.Cancel()
				*tm = s.AtArg(when, rearmNop, s)
			}
		})
		b.Run(fmt.Sprintf("flight/%d", depth), func(b *testing.B) {
			s, _ := standingFrom(Time(1000 * Hour))
			for i := 0; i < flightPackets; i++ {
				flightHop(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step(maxTime)
			}
		})
	}
}

// flightPackets is how many packet events BenchmarkDeepQueue's flight
// pattern keeps pending: about what the soon heap holds on the NATed
// testbed's transfers.
const flightPackets = 32

// flightDelays are the distances ahead flightHop schedules at, in turn:
// path latencies and service times from 0.3 to 35 ms.
var flightDelays = func() [64]Duration {
	var d [64]Duration
	rng := rand.New(rand.NewSource(3))
	for i := range d {
		d[i] = 300*Microsecond + Duration(rng.Int63n(int64(35*Millisecond-300*Microsecond)))
	}
	return d
}()

// flightHop is a packet event's callback: it schedules the packet's next
// event one of flightDelays ahead.
func flightHop(arg any) {
	s := arg.(*Simulator)
	s.AtArg(s.now.Add(flightDelays[s.Processed%64]), flightHop, s)
}

// standingInterval is the period of BenchmarkDeepQueue's standing timers.
const standingInterval = 10 * Second

// rearmNop is a standing timer's callback: it re-arms itself one interval
// ahead, like a keepalive.
func rearmNop(arg any) {
	s := arg.(*Simulator)
	s.AtArg(s.now.Add(standingInterval), rearmNop, s)
}
