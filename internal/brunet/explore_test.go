package brunet

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

// crashRun is one run of the crash-instant explorer: an 8-node public ring
// whose eighth node (node007) has just joined through node000, and a victim
// among the first seven that stops at an instant after that join.
type crashRun struct {
	victim int
	at     sim.Duration // after node007's join
}

const (
	// crashRingSize is the explorer's ring before node007 joins.
	crashRingSize = 7
	// crashStep and crashWindow: the instants tried, 0, 10, …, 1 990 ms.
	crashStep   = 10 * sim.Millisecond
	crashWindow = 2 * sim.Second
	// crashDown is how long the victim stays down before it restarts.
	crashDown = 10 * sim.Second
	// crashSettle is how long after the restart the ring is given to close.
	crashSettle = 5 * sim.Minute
)

// name is the run's subtest name: the victim and the instant in ms.
func (c crashRun) name() string { return fmt.Sprintf("v%d_d%dms", c.victim, c.at/sim.Millisecond) }

// replay is a command that runs c alone.
func (c crashRun) replay() string {
	return fmt.Sprintf("go test -run 'TestCrashInstantExplorer/sweep/%s$' -v ./internal/brunet/", c.name())
}

// explore runs c and returns a line per ring member that holds no near link
// to its successor at the end, naming the roles of what it holds instead;
// nil when the ring is consistent.
func (c crashRun) explore(t *testing.T) []string {
	r := newOverlayRig(7)
	cfg := FastTestConfig()
	for i := 0; i < crashRingSize; i++ {
		r.addPublic(t, fmt.Sprintf("node%03d", i), cfg)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(30 * sim.Second)
	joiner := r.addPublic(t, fmt.Sprintf("node%03d", crashRingSize), cfg)
	r.s.RunFor(c.at)
	victim := r.nodes[c.victim]
	victim.Stop()
	r.s.RunFor(crashDown)
	h := r.net.AddHost(fmt.Sprintf("node%03d-reborn", c.victim), r.site, r.net.Root(), phys.HostConfig{})
	reborn := NewNode(h, victim.Addr(), cfg)
	if err := reborn.Start([]URI{joiner.BootstrapURI()}); err != nil {
		t.Fatalf("%s: restart: %v", c.name(), err)
	}
	r.nodes[c.victim] = reborn
	r.s.RunFor(crashSettle)

	var missing []string
	order := r.ringOrder()
	for i, n := range order {
		succ := order[(i+1)%len(order)]
		conn := n.ConnectionTo(succ.Addr())
		if conn != nil && conn.Has(StructuredNear) {
			continue
		}
		held := "nothing"
		if conn != nil {
			held = fmt.Sprint(conn.Types())
		}
		missing = append(missing, fmt.Sprintf("%s has no near link to its successor %s (holds %s)", n.Addr(), succ.Addr(), held))
	}
	return missing
}

// crashKnown is what the tree fails today, by victim: the instants (ms after
// node007's join) at which the ring is still open crashSettle after the
// restart, 57 of the 1 400 runs. The list only shrinks: a fix that closes a
// run takes it out in the same change, and a run that newly fails is a
// regression, never a new entry. ROADMAP items 2 and 15 have the causes:
//   - victims 2 and 6, defect (8): f60bf9a3 lacks its near link to
//     0e898179, and in most of these runs the two hold a far edge, for which
//     status gossip never asks the near role;
//   - victim 4, defect (12): 313a2aaa lacks its near link to 96ab15fe, its
//     successor, which keeps one near link;
//   - victim 0 at 0 ms: node007's only bootstrap dies before it joins and
//     the reborn node000 boots off node007, leaving two rings that do not
//     know each other (item 8(c)'s double ring, not a repair defect).
var crashKnown = map[int][]int{
	0: {0},
	2: {480, 500},
	4: {930, 940, 950, 970, 980, 1000, 1010, 1020, 1030, 1040, 1050, 1060, 1070, 1090,
		1700, 1710, 1720, 1730, 1740, 1750, 1780, 1790, 1800, 1810, 1820, 1830, 1840, 1860, 1870, 1880, 1890},
	6: {10, 20, 50, 70, 80, 130, 140, 150, 160, 170, 180, 240, 250, 260, 280, 290, 310, 340, 370, 380, 440, 450, 470},
}

// TestCrashInstantExplorer enumerates every crash instant of a small ring
// (ROADMAP item 15): 7 public nodes join 2 s apart and settle for 30 s, then
// node007 joins through node000; for each victim 0…6 and each instant 0, 10,
// …, 1 990 ms after that join the victim stops, and 10 s later restarts with
// its own address on a new host, bootstrapping off node007. Five virtual
// minutes later every ring member must hold a near link to its successor,
// except in the runs crashKnown pins. Each failure prints as a one-line
// replay.
func TestCrashInstantExplorer(t *testing.T) {
	var (
		mu     sync.Mutex
		failed = map[crashRun][]string{}
		ran    []crashRun
	)
	step := crashStep
	if raceEnabled {
		// The race detector looks for state the parallel runs share, which
		// every tenth instant shows as well as all of them; the full sweep
		// is ten times as slow under it.
		step *= 10
	}
	t.Run("sweep", func(t *testing.T) {
		for v := 0; v < crashRingSize; v++ {
			for d := sim.Duration(0); d < crashWindow; d += step {
				run := crashRun{victim: v, at: d}
				t.Run(run.name(), func(t *testing.T) {
					t.Parallel()
					missing := run.explore(t)
					mu.Lock()
					defer mu.Unlock()
					ran = append(ran, run)
					if missing != nil {
						failed[run] = missing
					}
				})
			}
		}
	})
	if len(ran) == 0 {
		t.Fatal("no run selected")
	}
	slices.SortFunc(ran, func(a, b crashRun) int {
		if a.victim != b.victim {
			return a.victim - b.victim
		}
		return int(a.at - b.at)
	})
	var regressions, mended []string
	for _, run := range ran {
		known := slices.Contains(crashKnown[run.victim], int(run.at/sim.Millisecond))
		missing, open := failed[run]
		switch {
		case open && !known:
			regressions = append(regressions, fmt.Sprintf("%s: %s; replay: %s", run.name(), strings.Join(missing, "; "), run.replay()))
		case !open && known:
			mended = append(mended, fmt.Sprintf("%s: the ring closes now; take it out of crashKnown", run.name()))
		case open:
			t.Logf("known: %s: %s; replay: %s", run.name(), strings.Join(missing, "; "), run.replay())
		}
	}
	for _, line := range append(regressions, mended...) {
		t.Error(line)
	}
	t.Logf("%d runs, %d left the ring open", len(ran), len(failed))
}
