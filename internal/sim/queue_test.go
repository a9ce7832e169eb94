package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// effect is what an event does when it fires, besides being logged: the
// queue is mutated from inside callbacks at least as often as from outside.
type effect struct {
	kind uint8 // 0 nothing, 1 schedule a child, 2 cancel some timer, 3 both
	x    uint8
}

// queueModel drives a Simulator and the container/heap oracle through the
// same program and holds them together after every operation.
type queueModel struct {
	s       *Simulator
	o       *oracleSim
	handles []Timer // by id; the Simulator must hand out seq == id
	got     []popRec
	checked int // prefix of got already compared with the oracle's pops
	err     error
}

type firing struct {
	id  uint64
	eff effect
}

// offset maps a program byte to a scheduling distance: mostly a handful of
// near values around zero, so equal timestamps and past (clamped) times are
// the norm, with an occasional far-future standing timer.
func offset(x uint8) Time {
	if x >= 224 {
		return 1000 + Time(x)
	}
	return Time(x%8) - 2
}

func (m *queueModel) failf(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

// fire is the Simulator-side callback of event id.
func (m *queueModel) fire(id uint64, eff effect) {
	m.got = append(m.got, popRec{m.s.Now(), id})
	if eff.kind&1 != 0 {
		m.scheduleReal(eff.x, m.s.Now()+offset(eff.x), effect{})
	}
	if eff.kind&2 != 0 {
		m.handles[uint64(eff.x)*7%uint64(len(m.handles))].Cancel()
	}
}

func (m *queueModel) fireArg(arg any) {
	f := arg.(firing)
	m.fire(f.id, f.eff)
}

// scheduleReal schedules on the Simulator through one of its three forms
// and checks the new slot carries the expected key.
func (m *queueModel) scheduleReal(form uint8, t Time, eff effect) {
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
	if sl := m.s.queue[h.ev.index]; sl.ev != h.ev || sl.seq != id || sl.when != t {
		m.failf("event %d scheduled at %d sits in slot {when %d, seq %d}", id, t, sl.when, sl.seq)
	}
}

// check asserts every invariant that ties the two queues together.
func (m *queueModel) check(op string) {
	if m.err != nil {
		return
	}
	q := m.s.queue
	if len(q) != len(m.o.queue) || m.s.Pending() != len(q) {
		m.failf("%s: %d slots, Pending() %d, oracle holds %d", op, len(q), m.s.Pending(), len(m.o.queue))
		return
	}
	if m.s.Now() != m.o.now {
		m.failf("%s: clock %d, oracle %d", op, m.s.Now(), m.o.now)
	}
	for i := range q {
		if int(q[i].ev.index) != i {
			m.failf("%s: slot %d holds an event with index %d", op, i, q[i].ev.index)
		}
		if i > 0 && q[i].before(&q[(i-1)/4]) {
			m.failf("%s: slot %d fires before its parent %d", op, i, (i-1)/4)
		}
	}
	if len(m.handles) != len(m.o.events) {
		m.failf("%s: %d events scheduled, oracle %d", op, len(m.handles), len(m.o.events))
		return
	}
	for id, h := range m.handles {
		if oe := m.o.events[id]; oe.index >= 0 {
			if !h.Active() || h.Time() != oe.when || q[h.ev.index].seq != uint64(id) {
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

// runQueueProgram interprets prog, two bytes an operation, against both
// queues and reports the first divergence or broken invariant.
func runQueueProgram(prog []byte) error {
	m := &queueModel{s: New(1), o: &oracleSim{}}
	for pc := 0; pc+1 < len(prog) && m.err == nil; pc += 2 {
		op, x := prog[pc], prog[pc+1]
		now := m.s.Now()
		switch op % 8 {
		case 0, 1, 2, 3: // schedule: form from op, effect from its high bits
			eff := effect{kind: op >> 6, x: x ^ op}
			m.scheduleReal(op, now+offset(x), eff)
			m.o.schedule(now+offset(x), eff)
			m.check("schedule")
		case 4: // cancel: the root, the last slot, or any timer ever issued
			if len(m.handles) == 0 {
				continue
			}
			id := (uint64(x)*251 + uint64(pc)) % uint64(len(m.handles))
			if q := m.s.queue; len(q) > 0 && x%4 == 0 {
				id = q[0].seq
			} else if len(q) > 0 && x%4 == 1 {
				id = q[len(q)-1].seq
			}
			if got, want := m.handles[id].Cancel(), m.o.cancel(id); got != want {
				m.failf("Cancel(%d) = %v, oracle %v", id, got, want)
			}
			m.check("cancel")
		case 5:
			m.s.RunUntil(now + Time(x%8))
			m.o.runUntil(now + Time(x%8))
			m.check("RunUntil")
		case 6:
			m.s.RunBefore(now + Time(x%8))
			m.o.runBefore(now + Time(x%8))
			m.check("RunBefore")
		case 7:
			if m.s.step(-1) {
				m.o.step()
			}
			m.check("step")
		}
	}
	m.s.Run()
	for len(m.o.queue) > 0 {
		m.o.step()
	}
	m.check("drain")
	return m.err
}

// Property: over random interleavings of At/AtArg/After, Cancel and the
// run primitives — from outside and from inside callbacks — the 4-ary slot
// heap pops exactly the container/heap oracle's (when, seq) sequence and
// keeps its index and heap-order invariants after every operation.
func TestQuickQueueMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(prog)
		if rng.Intn(2) == 0 {
			// Bias toward scheduling so the heap grows several levels deep.
			for pc := 0; pc < len(prog); pc += 2 {
				if rng.Intn(3) > 0 {
					prog[pc] &^= 4
				}
			}
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

// TestQueueCancelPositions pins the indexed removal's corner cases on a
// heap three levels deep: the root, the last slot, a slot whose replacement
// must sift down and one whose replacement must sift up. Keys are inserted
// so that none sifts on the way in: slot i holds the i-th key.
func TestQueueCancelPositions(t *testing.T) {
	ascending := make([]Time, 64)
	for i := range ascending {
		ascending[i] = Time(10 * (i + 1))
	}
	// Slot 1 and its children 5..8 are late, the last slot (20, under slot
	// 4) is early: moved into slot 5 it fires before slot 1 and must rise.
	lateSubtree := []Time{1, 100, 2, 3, 4, 101, 102, 103, 104, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
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
		s := New(1)
		var fired []int
		note := func(arg any) { fired = append(fired, arg.(int)) }
		timers := make([]Timer, len(tc.keys))
		for i, when := range tc.keys {
			timers[i] = s.AtArg(when, note, i)
			if timers[i].ev.index != int32(i) {
				t.Fatalf("%s: key %d sifted on insertion", tc.name, i)
			}
		}
		if last := &s.queue[len(s.queue)-1]; tc.name == "up" && !last.before(&s.queue[(tc.slot-1)/4]) {
			t.Fatal("up: the last slot would not rise from the victim's position")
		}
		if !timers[tc.slot].Cancel() || s.Pending() != len(tc.keys)-1 {
			t.Fatalf("%s: Cancel of a pending timer failed", tc.name)
		}
		for i := range s.queue {
			if int(s.queue[i].ev.index) != i || (i > 0 && s.queue[i].before(&s.queue[(i-1)/4])) {
				t.Fatalf("%s: heap broken at slot %d after Cancel", tc.name, i)
			}
		}
		s.Run()
		if len(fired) != len(tc.keys)-1 {
			t.Fatalf("%s: fired %d of %d", tc.name, len(fired), len(tc.keys)-1)
		}
		for i, id := range fired {
			if id == tc.slot {
				t.Fatalf("%s: cancelled event fired", tc.name)
			}
			if i > 0 && tc.keys[id] < tc.keys[fired[i-1]] {
				t.Fatalf("%s: events fired out of order: %v", tc.name, fired)
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
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		if err := runQueueProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDeepQueue times the queue's three traffic patterns under a
// standing population of far-future timers, at three depths, so that the
// log₄(depth) cost of each is on record:
//
//	hop    push a near-now event past the standing timers and pop it
//	       (a packet delivery at a frozen clock);
//	rearm  pop the minimum and push it back one interval ahead
//	       (a keepalive or ticker firing);
//	cancel remove a random standing timer and arm it again
//	       (a ping timeout reset by the pong).
func BenchmarkDeepQueue(b *testing.B) {
	for _, depth := range []int{1 << 10, 1 << 16, 1 << 20} {
		standing := func() (*Simulator, []Timer) {
			s := New(1)
			timers := make([]Timer, depth)
			for i := range timers {
				timers[i] = s.AtArg(Time(Second)+Time(s.Rand().Int63n(int64(standingInterval))), rearmNop, s)
			}
			return s, timers
		}
		b.Run(fmt.Sprintf("hop/%d", depth), func(b *testing.B) {
			s, _ := standing()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AtArg(s.now, nop, nil)
				s.step(-1)
			}
		})
		b.Run(fmt.Sprintf("rearm/%d", depth), func(b *testing.B) {
			s, _ := standing()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step(-1)
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
	}
}

// standingInterval is the period of BenchmarkDeepQueue's standing timers.
const standingInterval = 10 * Second

// rearmNop is a standing timer's callback: it re-arms itself one interval
// ahead, like a keepalive.
func rearmNop(arg any) {
	s := arg.(*Simulator)
	s.AtArg(s.now.Add(standingInterval), rearmNop, s)
}
