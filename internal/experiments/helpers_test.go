package experiments

import (
	"errors"
	"fmt"
	"testing"

	"wow/internal/sim"
)

// TestParallelLowestIndexError: parallel runs every leg, and of the legs
// that fail it returns the lowest index's error, here the leg that
// finishes last.
func TestParallelLowestIndexError(t *testing.T) {
	const n = 6
	ran := make([]bool, n)
	errs := []error{1: errors.New("leg 1"), 4: errors.New("leg 4")}
	leg4Done := make(chan struct{})
	err := parallel(n, func(i int) error {
		ran[i] = true
		switch i {
		case 1:
			<-leg4Done // finish after leg 4 has returned its error
		case 4:
			defer close(leg4Done)
		}
		if i < len(errs) {
			return errs[i]
		}
		return nil
	})
	if err != errs[1] {
		t.Errorf("parallel returned %v, want the error of leg 1", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("leg %d did not run", i)
		}
	}
	if err := parallel(n, func(int) error { return nil }); err != nil {
		t.Errorf("no leg fails: got %v", err)
	}
	if err := parallel(0, func(i int) error { return fmt.Errorf("leg %d ran", i) }); err != nil {
		t.Errorf("no legs: got %v", err)
	}
}

// TestWaitForStopsAtDoneOrLimit: waitFor returns at the first step after
// done holds, without a step when it holds at the call, and at the limit
// when it never does.
func TestWaitForStopsAtDoneOrLimit(t *testing.T) {
	for _, tc := range []struct {
		name        string
		doneAt      sim.Duration // 0: never; <0: before the call
		step, limit sim.Duration
		want        bool
		end         sim.Duration
	}{
		{"done mid-step", 150 * sim.Second, sim.Minute, sim.Hour, true, 3 * sim.Minute},
		{"done on a step", 2 * sim.Minute, sim.Minute, sim.Hour, true, 2 * sim.Minute},
		{"done at the call", -1, sim.Minute, sim.Hour, true, 0},
		{"never done", 0, sim.Minute, 10 * sim.Minute, false, 10 * sim.Minute},
		{"limit between steps", 0, 4 * sim.Minute, 10 * sim.Minute, false, 12 * sim.Minute},
		{"done after the limit", 20 * sim.Minute, sim.Minute, 10 * sim.Minute, false, 10 * sim.Minute},
		{"zero limit", 0, sim.Minute, 0, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			s.RunFor(sim.Hour) // start away from the epoch
			start := s.Now()
			done := tc.doneAt < 0
			if tc.doneAt > 0 {
				s.At(start.Add(tc.doneAt), func() { done = true })
			}
			got := waitFor(s, tc.step, tc.limit, func() bool { return done })
			if got != tc.want {
				t.Errorf("waitFor = %v, want %v", got, tc.want)
			}
			if end := s.Now().Sub(start); end != tc.end {
				t.Errorf("returned after %v, want %v", end, tc.end)
			}
		})
	}
}
