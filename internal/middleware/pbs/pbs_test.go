package pbs

import (
	"fmt"
	"testing"

	"wow/internal/middleware/nfs"
	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vip/viptest"
)

type cluster struct {
	s       *sim.Simulator
	mesh    *viptest.Mesh
	head    *Head
	nfsSrv  *nfs.Server
	headIP  vip.IP
	moms    []*MOM
	workers []*viptest.Machine
}

func newCluster(t *testing.T, seed int64, workers int, speeds []float64) *cluster {
	t.Helper()
	s := sim.New(seed)
	m := viptest.NewMesh(s, 10*sim.Millisecond)
	headStack := m.AddStack(vip.MustParseIP("172.16.1.1"), vip.StackConfig{})
	nfsSrv, err := nfs.NewServer(headStack)
	if err != nil {
		t.Fatal(err)
	}
	head, err := NewHead(headStack)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{s: s, mesh: m, head: head, nfsSrv: nfsSrv, headIP: headStack.IP()}
	for i := 0; i < workers; i++ {
		speed := 1.0
		if speeds != nil {
			speed = speeds[i%len(speeds)]
		}
		w := viptest.NewMachine(m, fmt.Sprintf("node%03d", i+2), vip.IP(vip.MustParseIP("172.16.1.2"))+vip.IP(i), speed)
		mom, err := NewMOM(w, c.headIP)
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
		c.moms = append(c.moms, mom)
	}
	s.RunFor(10 * sim.Second) // registration
	return c
}

func TestRegistration(t *testing.T) {
	c := newCluster(t, 1, 4, nil)
	if got := len(c.head.workers); got != 4 {
		t.Fatalf("registered %d of 4", got)
	}
}

func TestSingleJobRuns(t *testing.T) {
	c := newCluster(t, 2, 2, nil)
	c.nfsSrv.Put("/in", 64<<10)
	var rec *JobRecord
	c.head.OnJobDone(func(r *JobRecord) { rec = r })
	c.head.Submit(JobSpec{ID: 1, CPU: 10 * sim.Second, InputPath: "/in", OutputPath: "/out/1", OutputBytes: 16 << 10})
	c.s.RunFor(5 * sim.Minute)
	if rec == nil || !rec.OK {
		t.Fatalf("job did not complete: %+v", rec)
	}
	if rec.WallSeconds() < 10 {
		t.Fatalf("wall %.1fs < CPU time", rec.WallSeconds())
	}
	if sz, ok := c.nfsSrv.Size("/out/1"); !ok || sz != 16<<10 {
		t.Fatalf("output not committed to NFS: %d", sz)
	}
	if c.head.done != 1 {
		t.Fatal("completed count")
	}
}

func TestMissingInputFailsJob(t *testing.T) {
	c := newCluster(t, 3, 1, nil)
	var rec *JobRecord
	c.head.OnJobDone(func(r *JobRecord) { rec = r })
	c.head.Submit(JobSpec{ID: 1, CPU: sim.Second, InputPath: "/does-not-exist"})
	c.s.RunFor(2 * sim.Minute)
	if rec == nil || rec.OK {
		t.Fatalf("job with missing input reported OK: %+v", rec)
	}
	if c.head.done != 1 {
		t.Fatalf("%d jobs completed, want the failed one", c.head.done)
	}
}

func TestJobsQueueWhenWorkersBusy(t *testing.T) {
	c := newCluster(t, 4, 2, nil)
	done := 0
	c.head.OnJobDone(func(r *JobRecord) { done++ })
	for i := 0; i < 6; i++ {
		c.head.Submit(JobSpec{ID: i, CPU: 30 * sim.Second})
	}
	c.s.RunFor(20 * sim.Second)
	if len(c.head.queue) == 0 {
		t.Fatal("queue empty despite 6 jobs on 2 workers")
	}
	c.s.RunFor(10 * sim.Minute)
	if done != 6 {
		t.Fatalf("done = %d", done)
	}
}

func TestFasterWorkersRunMoreJobs(t *testing.T) {
	// Mirrors the Figure 8 observation: slow nodes (node032-like, 0.45×)
	// end up with far fewer jobs than fast ones (node033-like, 1.33×).
	c := newCluster(t, 5, 4, []float64{1.33, 1.0, 1.0, 0.45})
	for i := 0; i < 100; i++ {
		c.head.Submit(JobSpec{ID: i, CPU: 20 * sim.Second})
	}
	c.s.RunFor(3 * sim.Hour)
	if c.head.done != 100 {
		t.Fatalf("completed %d", c.head.done)
	}
	counts := map[string]int{}
	for _, w := range c.head.workers {
		counts[w.name] = w.jobs
	}
	fast := counts["node002"] // 1.33×
	slow := counts["node005"] // 0.45×
	if fast <= slow {
		t.Fatalf("fast worker ran %d, slow ran %d; want fast > slow", fast, slow)
	}
}

func TestRecordsTimeline(t *testing.T) {
	c := newCluster(t, 6, 1, nil)
	for i := 0; i < 3; i++ {
		c.head.Submit(JobSpec{ID: i, CPU: 5 * sim.Second})
	}
	c.s.RunFor(5 * sim.Minute)
	recs := c.head.records
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, r := range recs {
		if !(r.Submitted <= r.Started && r.Started < r.Finished) {
			t.Fatalf("record %d timeline broken: %+v", i, r)
		}
		if r.Worker == "" {
			t.Fatal("worker not recorded")
		}
	}
	// Serialized on one worker: starts are ordered.
	if !(recs[0].Finished <= recs[1].Started+1 && recs[1].Finished <= recs[2].Started+1) {
		t.Fatal("single worker ran jobs concurrently")
	}
}

func TestWorkerOutageJobRequeuedOrFailed(t *testing.T) {
	// A worker dying mid-job must not wedge the head: the RPC transport
	// gives up and the head marks the job failed and frees the slot.
	s := sim.New(7)
	m := viptest.NewMesh(s, 10*sim.Millisecond)
	headStack := m.AddStack(vip.MustParseIP("172.16.1.1"), vip.StackConfig{GiveUp: 2 * sim.Minute})
	if _, err := nfs.NewServer(headStack); err != nil {
		t.Fatal(err)
	}
	head, err := NewHead(headStack)
	if err != nil {
		t.Fatal(err)
	}
	w := viptest.NewMachine(m, "doomed", vip.MustParseIP("172.16.1.2"), 1)
	if _, err := NewMOM(w, headStack.IP()); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * sim.Second)

	var rec *JobRecord
	head.OnJobDone(func(r *JobRecord) { rec = r })
	head.Submit(JobSpec{ID: 1, CPU: sim.Hour})
	s.RunFor(10 * sim.Second)
	m.SetUp(w.S.IP(), false) // worker crashes mid-job
	// TCP keepalive (2h idle + 9 probes) eventually reaps the dead
	// connection, exactly like the kernel timers PBS relied on.
	s.RunFor(4 * sim.Hour)
	if rec == nil {
		t.Fatal("head wedged on dead worker")
	}
	if rec.OK {
		t.Fatal("job on crashed worker reported OK")
	}
}
