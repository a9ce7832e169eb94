package scp

import (
	"testing"

	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vip/viptest"
)

func setup(seed int64, latency sim.Duration) (*sim.Simulator, *viptest.Mesh, *Server, *vip.Stack, *vip.Stack) {
	s := sim.New(seed)
	m := viptest.NewMesh(s, latency)
	serverStack := m.AddStack(vip.MustParseIP("172.16.1.1"), vip.StackConfig{})
	clientStack := m.AddStack(vip.MustParseIP("172.16.1.2"), vip.StackConfig{})
	srv, err := NewServer(serverStack)
	if err != nil {
		panic(err)
	}
	return s, m, srv, serverStack, clientStack
}

func TestFetchCompletes(t *testing.T) {
	s, _, srv, serverStack, clientStack := setup(1, 10*sim.Millisecond)
	const size = 4 << 20
	srv.Put("/iso/image", size)
	var doneErr error = vip.ErrReset
	tr := Fetch(clientStack, serverStack.IP(), "/iso/image", sim.Second, func(err error) { doneErr = err })
	s.RunFor(5 * sim.Minute)
	if doneErr != nil {
		t.Fatalf("fetch error: %v", doneErr)
	}
	if !tr.Done || tr.Received != size || tr.Size != size {
		t.Fatalf("received %d of %d (done=%v)", tr.Received, size, tr.Done)
	}
	if srv.Transfers != 1 {
		t.Fatal("server transfer count")
	}
	if tr.Progress.Len() == 0 {
		t.Fatal("no progress samples")
	}
}

func TestFetchMissingFile(t *testing.T) {
	s, _, _, serverStack, clientStack := setup(2, sim.Millisecond)
	var doneErr error
	tr := Fetch(clientStack, serverStack.IP(), "/nope", 0, func(err error) { doneErr = err })
	s.RunFor(30 * sim.Second)
	if doneErr == nil || !tr.Done {
		t.Fatal("missing file fetch did not error")
	}
}

func TestProgressMonotonicAndThroughput(t *testing.T) {
	s, _, srv, serverStack, clientStack := setup(3, 10*sim.Millisecond)
	srv.Put("/f", 8<<20)
	tr := Fetch(clientStack, serverStack.IP(), "/f", sim.Second, nil)
	s.RunFor(5 * sim.Minute)
	prev := -1.0
	for i := 0; i < tr.Progress.Len(); i++ {
		_, b := tr.Progress.At(i)
		if b < prev {
			t.Fatal("progress not monotone")
		}
		prev = b
	}
	t0, b0 := tr.Progress.At(0)
	t1, b1 := tr.Progress.At(tr.Progress.Len() - 1)
	if bw := (b1 - b0) / (t1 - t0); !(bw > 0) {
		t.Fatalf("throughput = %f", bw)
	}
}

func TestTransferStallsAndResumesAcrossOutage(t *testing.T) {
	// The Figure 6 scenario at middleware level: the server vanishes
	// mid-transfer and the byte counter freezes, then resumes.
	s, m, srv, serverStack, clientStack := setup(4, 10*sim.Millisecond)
	const size = 16 << 20
	srv.Put("/big", size)
	tr := Fetch(clientStack, serverStack.IP(), "/big", sim.Second, nil)
	s.RunFor(3 * sim.Second)
	frozen := tr.Received
	if frozen == 0 || frozen == size {
		t.Fatalf("outage window mistimed: %d", frozen)
	}
	m.SetUp(serverStack.IP(), false)
	s.RunFor(4 * sim.Minute)
	if tr.Received != frozen {
		t.Fatal("bytes arrived during outage")
	}
	if tr.Done {
		t.Fatal("transfer aborted during outage")
	}
	m.SetUp(serverStack.IP(), true)
	s.RunFor(10 * sim.Minute)
	if !tr.Done || tr.Err != nil || tr.Received != size {
		t.Fatalf("transfer did not resume: done=%v err=%v rcvd=%d", tr.Done, tr.Err, tr.Received)
	}
}
