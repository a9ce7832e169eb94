package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	s := New(1)
	s.Run()
	if s.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", s.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-timestamp events out of FIFO order: %v", got)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New(1)
	var at Time
	s.After(2*Second, func() { at = s.Now() })
	s.Run()
	if at != Time(2*Second) {
		t.Fatalf("event fired at %v, want 2s", at)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	s := New(1)
	var fired []Time
	s.After(Second, func() {
		s.At(0, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 1 || fired[0] != Time(Second) {
		t.Fatalf("past event fired at %v, want clamp to 1s", fired)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.After(Second, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel on pending event reported false")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel reported true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Active() {
		t.Fatal("Active() true after Cancel")
	}
}

func TestTimerRecyclingIsSafe(t *testing.T) {
	s := New(1)
	// Fire an event, keep its stale handle, then schedule a fresh event
	// that recycles the pooled object. The stale handle must not be able
	// to cancel the new scheduling.
	stale := s.After(Second, func() {})
	s.Run()
	fired := false
	fresh := s.After(Second, func() { fired = true })
	if stale.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if !fresh.Active() {
		t.Fatal("fresh event not active")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Active() || tm.Cancel() || tm.Time() != 0 {
		t.Fatal("zero Timer is not inert")
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	s := New(1)
	ev := s.After(Second, func() {})
	s.After(2*Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	ev.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after cancel, want eager removal to 1", s.Pending())
	}
}

func TestAtArg(t *testing.T) {
	s := New(1)
	var got any
	s.AtArg(Time(Second), func(a any) { got = a }, 42)
	s.Run()
	if got != 42 {
		t.Fatalf("AtArg callback got %v, want 42", got)
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := New(1)
	ev := s.After(Second, func() {})
	s.Run()
	if ev.Cancel() {
		t.Fatal("Cancel after firing reported true")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []int
	s.After(Second, func() { fired = append(fired, 1) })
	s.After(3*Second, func() { fired = append(fired, 3) })
	s.RunUntil(Time(2 * Second))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if s.Now() != Time(2*Second) {
		t.Fatalf("clock = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("second event never fired: %v", fired)
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	n := 0
	s.Tick(Second, 0, func() { n++ })
	s.RunFor(10*Second + Millisecond)
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	n := 0
	for i := 0; i < 100; i++ {
		s.After(Duration(i)*Second, func() {
			n++
			if n == 5 {
				s.Stop()
			}
		})
	}
	s.Run()
	if n != 5 {
		t.Fatalf("ran %d events after Stop, want 5", n)
	}
}

func TestTickerStop(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.Tick(Second, 0, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestTickerJitterBounds(t *testing.T) {
	s := New(42)
	var times []Time
	var tk *Ticker
	tk = s.Tick(10*Second, Second, func() {
		times = append(times, s.Now())
		if len(times) == 50 {
			tk.Stop()
		}
	})
	s.Run()
	prev := Time(0)
	for _, tm := range times {
		gap := tm.Sub(prev)
		if gap < 9*Second || gap > 11*Second {
			t.Fatalf("jittered gap %v outside [9s,11s]", gap)
		}
		prev = tm
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(7)
		var out []Time
		for i := 0; i < 20; i++ {
			s.After(Duration(s.Rand().Int63n(int64(Minute))), func() {
				out = append(out, s.Now())
				if s.Rand().Intn(2) == 0 {
					s.After(Duration(s.Rand().Int63n(int64(Second))), func() {
						out = append(out, s.Now())
					})
				}
			})
		}
		s.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events fire in nondecreasing time order regardless of insertion
// order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		s := New(3)
		var fired []Time
		for _, d := range delays {
			s.After(Duration(d%1e9), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset fires exactly the complement.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint16, mask uint64) bool {
		s := New(5)
		fired := 0
		want := 0
		for i, d := range delays {
			ev := s.After(Duration(d), func() { fired++ })
			if mask&(1<<(uint(i)%64)) != 0 {
				ev.Cancel()
			} else {
				want++
			}
		}
		s.Run()
		return fired == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500s" {
		t.Fatalf("Duration.String = %q", got)
	}
	if got := Time(2 * Second).String(); got != "t=2.000s" {
		t.Fatalf("Time.String = %q", got)
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.After(Duration(j)*Millisecond, func() {})
		}
		s.Run()
	}
}

// Local keeps one value per (simulator, key): made once, the same pointer
// ever after, and a value of its own for every key and for every shard of
// an engine — what the per-shard packet pools stand on.
func TestLocalOnePerSimulatorAndKey(t *testing.T) {
	type keyA struct{}
	type keyB struct{}
	made := 0
	mk := func(*Simulator) any { made++; return new(int) }
	s := New(1)
	a := s.Local(keyA{}, mk)
	if s.Local(keyA{}, mk) != a || made != 1 {
		t.Fatalf("second Local(keyA) made a new value (made %d)", made)
	}
	if b := s.Local(keyB{}, mk); b == a || made != 2 {
		t.Fatalf("Local(keyB) shares keyA's value (made %d)", made)
	}
	if s.Local(keyA{}, mk) != a {
		t.Fatal("Local(keyA) changed after another key was added")
	}
	if New(1).Local(keyA{}, mk) == a {
		t.Fatal("two simulators share a local")
	}
	eng := NewSharded(1, 4, 1)
	defer eng.Close()
	seen := map[any]bool{}
	for i := 0; i < eng.Shards(); i++ {
		seen[eng.Shard(i).Local(keyA{}, mk)] = true
	}
	if len(seen) != eng.Shards() {
		t.Fatalf("%d distinct locals over %d shards", len(seen), eng.Shards())
	}
}
