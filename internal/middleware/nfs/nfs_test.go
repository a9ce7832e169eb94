package nfs

import (
	"testing"

	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vip/viptest"
)

func setup(seed int64) (*sim.Simulator, *Server, *Client, *vip.Stack) {
	s := sim.New(seed)
	m := viptest.NewMesh(s, 5*sim.Millisecond)
	serverStack := m.AddStack(vip.MustParseIP("172.16.1.1"), vip.StackConfig{})
	clientStack := m.AddStack(vip.MustParseIP("172.16.1.2"), vip.StackConfig{})
	srv, err := NewServer(serverStack)
	if err != nil {
		panic(err)
	}
	return s, srv, Mount(clientStack, serverStack.IP()), serverStack
}

func TestReadFileWholeAndBlocks(t *testing.T) {
	s, srv, c, _ := setup(2)
	const size = 200<<10 + 777 // not block aligned
	srv.Put("/data", size)
	var got int64
	okFlag := false
	c.ReadFile("/data", func(ok bool, n int64) { okFlag, got = ok, n })
	s.RunFor(sim.Minute)
	if !okFlag || got != size {
		t.Fatalf("read %d of %d (ok=%v)", got, size, okFlag)
	}
	// 200KB+777 at 32KB blocks = 7 reads.
	if srv.Ops["read"] != 7 {
		t.Fatalf("read ops = %d", srv.Ops["read"])
	}
}

func TestReadMissingFile(t *testing.T) {
	s, _, c, _ := setup(3)
	okFlag := true
	c.ReadFile("/missing", func(ok bool, n int64) { okFlag = ok })
	s.RunFor(5 * sim.Second)
	if okFlag {
		t.Fatal("read of missing file succeeded")
	}
}

func TestReadEmptyFile(t *testing.T) {
	s, srv, c, _ := setup(4)
	srv.Put("/empty", 0)
	var got int64 = -1
	okFlag := false
	c.ReadFile("/empty", func(ok bool, n int64) { okFlag, got = ok, n })
	s.RunFor(5 * sim.Second)
	if !okFlag || got != 0 {
		t.Fatalf("empty read: ok=%v n=%d", okFlag, got)
	}
}

func TestWriteFileAppendsAndGrows(t *testing.T) {
	s, srv, c, _ := setup(5)
	const size = 100 << 10
	okFlag := false
	c.WriteFile("/out/x", size, func(ok bool) { okFlag = ok })
	s.RunFor(sim.Minute)
	if !okFlag {
		t.Fatal("write failed")
	}
	if sz, ok := srv.Size("/out/x"); !ok || sz != size {
		t.Fatalf("server size = %d", sz)
	}
	if len(srv.files) != 1 {
		t.Fatal("file count")
	}
	// Writes append.
	c.WriteFile("/out/x", 1000, func(ok bool) {})
	s.RunFor(sim.Minute)
	if sz, _ := srv.Size("/out/x"); sz != size+1000 {
		t.Fatalf("append size = %d", sz)
	}
}

func TestTransferTimeScalesWithLatency(t *testing.T) {
	elapsed := func(latency sim.Duration) float64 {
		s := sim.New(7)
		m := viptest.NewMesh(s, latency)
		serverStack := m.AddStack(vip.MustParseIP("172.16.1.1"), vip.StackConfig{})
		clientStack := m.AddStack(vip.MustParseIP("172.16.1.2"), vip.StackConfig{})
		srv, _ := NewServer(serverStack)
		srv.Put("/big", 2<<20)
		c := Mount(clientStack, serverStack.IP())
		var doneAt sim.Time
		c.ReadFile("/big", func(ok bool, n int64) {
			if !ok || n != 2<<20 {
				t.Fatalf("read failed: %v %d", ok, n)
			}
			doneAt = s.Now()
		})
		s.RunFor(10 * sim.Minute)
		return doneAt.Seconds()
	}
	fast := elapsed(2 * sim.Millisecond)
	slow := elapsed(60 * sim.Millisecond)
	// NFS reads are block-serialized RPCs: time ≈ blocks × RTT, so 30×
	// the latency should be roughly an order of magnitude slower — the
	// exact mechanism that makes PBS jobs slower without shortcuts.
	if slow < 5*fast {
		t.Fatalf("latency insensitivity: fast=%.2fs slow=%.2fs", fast, slow)
	}
}

// TestUnmount: a mount whose RPC client is closed fails its reads.
func TestUnmount(t *testing.T) {
	s, srv, c, _ := setup(8)
	srv.Put("/a", 10)
	c.rpc.Close()
	okFlag := true
	c.ReadFile("/a", func(ok bool, _ int64) { okFlag = ok })
	s.RunFor(5 * sim.Second)
	if okFlag {
		t.Fatal("read after unmount succeeded")
	}
}
