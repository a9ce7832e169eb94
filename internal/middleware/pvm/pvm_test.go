package pvm

import (
	"fmt"
	"testing"

	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vip/viptest"
)

type rig struct {
	s      *sim.Simulator
	mesh   *viptest.Mesh
	master *Master
	mIP    vip.IP
	execs  []execution // every task a worker's machine ran, in start order
}

// execution is one task a worker's machine started: when, and its CPU.
type execution struct {
	at  sim.Time
	cpu sim.Duration
}

// recorder is a worker's machine that logs each task it starts.
type recorder struct {
	*viptest.Machine
	log *[]execution
}

func (m recorder) Execute(cpu sim.Duration, done func()) {
	*m.log = append(*m.log, execution{m.S.Sim().Now(), cpu})
	m.Machine.Execute(cpu, done)
}

func newRig(t *testing.T, seed int64, workers int, speeds []float64) *rig {
	t.Helper()
	s := sim.New(seed)
	m := viptest.NewMesh(s, 10*sim.Millisecond)
	masterStack := m.AddStack(vip.MustParseIP("172.16.1.1"), vip.StackConfig{})
	master, err := NewMaster(masterStack)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{s: s, mesh: m, master: master, mIP: masterStack.IP()}
	for i := 0; i < workers; i++ {
		speed := 1.0
		if speeds != nil {
			speed = speeds[i%len(speeds)]
		}
		w := viptest.NewMachine(m, fmt.Sprintf("w%02d", i), vip.MustParseIP("172.16.1.2")+vip.IP(i), speed)
		if err := NewWorker(recorder{w, &r.execs}, r.mIP); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(10 * sim.Second)
	return r
}

func flatRounds(rounds, tasksPer int, cpu sim.Duration) [][]Task {
	out := make([][]Task, rounds)
	id := 0
	for r := range out {
		for j := 0; j < tasksPer; j++ {
			out[r] = append(out[r], Task{ID: id, Round: r, CPU: cpu, SendBytes: 1024, RecvBytes: 512})
			id++
		}
	}
	return out
}

func TestEnrollment(t *testing.T) {
	r := newRig(t, 1, 5, nil)
	if len(r.master.workers) != 5 {
		t.Fatalf("enrolled %d of 5", len(r.master.workers))
	}
}

func TestRunCompletesAllTasks(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	var elapsed sim.Duration
	if err := r.master.Run(flatRounds(3, 8, 5*sim.Second), func(d sim.Duration) { elapsed = d }); err != nil {
		t.Fatal(err)
	}
	if err := r.master.Run(nil, nil); err == nil {
		t.Fatal("concurrent Run accepted")
	}
	r.s.RunFor(sim.Hour)
	if elapsed == 0 {
		t.Fatal("run never completed")
	}
	total := 0
	for _, w := range r.master.workers {
		total += w.tasks
	}
	if total != 24 {
		t.Fatalf("per-worker sum %d", total)
	}
}

func TestRoundBarriers(t *testing.T) {
	r := newRig(t, 3, 8, nil)
	// Round 0 has one long task; round 1 many short ones. No round-1
	// task may start before the round-0 barrier.
	rounds := [][]Task{
		{{ID: 0, Round: 0, CPU: 60 * sim.Second, SendBytes: 100, RecvBytes: 100}},
		flatRounds(1, 8, sim.Second)[0],
	}
	done := false
	r.master.Run(rounds, func(sim.Duration) { done = true })
	r.s.RunFor(sim.Hour)
	if !done || len(r.execs) != 9 || r.execs[0].cpu != 60*sim.Second {
		t.Fatalf("done=%v, tasks run %v; want the 60s task, then 8", done, r.execs)
	}
	barrier := r.execs[0].at.Add(60 * sim.Second)
	for _, e := range r.execs[1:] {
		if e.at < barrier {
			t.Fatalf("a round-1 task started at %.1fs, before the round-0 task finished at %.1fs",
				e.at.Seconds(), barrier.Seconds())
		}
	}
}

func TestEmptyRoundsSkipped(t *testing.T) {
	r := newRig(t, 4, 2, nil)
	done := false
	r.master.Run([][]Task{{}, {}, {}}, func(sim.Duration) { done = true })
	r.s.RunFor(sim.Minute)
	if !done {
		t.Fatal("empty rounds never completed")
	}
}

func TestDynamicDispatchFavorsFastWorkers(t *testing.T) {
	r := newRig(t, 5, 2, []float64{2.0, 0.5})
	r.master.Run(flatRounds(1, 40, 10*sim.Second), nil)
	r.s.RunFor(3 * sim.Hour)
	per := map[string]int{}
	for _, w := range r.master.workers {
		per[w.name] = w.tasks
	}
	if per["w00"] <= per["w01"] {
		t.Fatalf("fast worker got %d, slow got %d", per["w00"], per["w01"])
	}
}

func TestParallelSpeedup(t *testing.T) {
	elapsed := func(workers int) float64 {
		r := newRig(t, 6, workers, nil)
		var d sim.Duration
		r.master.Run(flatRounds(10, 16, 10*sim.Second), func(e sim.Duration) { d = e })
		r.s.RunFor(24 * sim.Hour)
		if d == 0 {
			t.Fatal("run incomplete")
		}
		return d.Seconds()
	}
	t1 := elapsed(1)
	t8 := elapsed(8)
	speedup := t1 / t8
	if speedup < 5 || speedup > 8 {
		t.Fatalf("8-worker speedup %.1f, want ~6-8 (sync overheads)", speedup)
	}
}

func TestWorkerCrashRequeuesTask(t *testing.T) {
	s := sim.New(7)
	m := viptest.NewMesh(s, 10*sim.Millisecond)
	masterStack := m.AddStack(vip.MustParseIP("172.16.1.1"), vip.StackConfig{GiveUp: 2 * sim.Minute})
	master, err := NewMaster(masterStack)
	if err != nil {
		t.Fatal(err)
	}
	good := viptest.NewMachine(m, "good", vip.MustParseIP("172.16.1.2"), 1)
	bad := viptest.NewMachine(m, "bad", vip.MustParseIP("172.16.1.3"), 1)
	if err := NewWorker(good, masterStack.IP()); err != nil {
		t.Fatal(err)
	}
	if err := NewWorker(bad, masterStack.IP()); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * sim.Second)

	done := false
	master.Run(flatRounds(1, 6, 30*sim.Second), func(sim.Duration) { done = true })
	s.RunFor(5 * sim.Second)
	m.SetUp(bad.S.IP(), false) // crash mid-round
	// Keepalive reaps the dead worker's connection after ~2h; the
	// surviving worker then absorbs the requeued tasks.
	s.RunFor(8 * sim.Hour)
	// Every dispatch ends in a completion or a requeue, so once all six
	// tasks completed, the dispatches past six are the requeues.
	dispatched := 0
	for _, w := range master.workers {
		dispatched += w.tasks
	}
	if !done {
		t.Fatalf("round never completed after worker crash (%d dispatches of 6 tasks)", dispatched)
	}
	if dispatched == 6 {
		t.Fatal("no tasks requeued")
	}
}
