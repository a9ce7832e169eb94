package rpc

import (
	"testing"

	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vip/viptest"
)

func setup(seed int64) (*sim.Simulator, *vip.Stack, *vip.Stack, *viptest.Mesh) {
	s := sim.New(seed)
	m := viptest.NewMesh(s, 10*sim.Millisecond)
	return s, m.AddStack(vip.MustParseIP("10.0.0.1"), vip.StackConfig{}),
		m.AddStack(vip.MustParseIP("10.0.0.2"), vip.StackConfig{}), m
}

func TestCallRoundTrip(t *testing.T) {
	s, server, client, _ := setup(1)
	if _, err := Serve(server, 100, func(from vip.IP, body any, reply func(any, int)) {
		if from != client.IP() {
			t.Errorf("from = %v", from)
		}
		reply("pong:"+body.(string), 64)
	}); err != nil {
		t.Fatal(err)
	}
	c := Dial(client, server.IP(), 100)
	var got any
	c.Call("ping", 64, func(resp any) { got = resp })
	s.RunFor(10 * sim.Second)
	if got != "pong:ping" {
		t.Fatalf("got %v", got)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	s, server, client, _ := setup(2)
	Serve(server, 100, func(from vip.IP, body any, reply func(any, int)) {
		reply(body, 64)
	})
	c := Dial(client, server.IP(), 100)
	got := make(map[int]bool)
	for i := 0; i < 20; i++ {
		i := i
		c.Call(i, 64, func(resp any) {
			if resp.(int) != i {
				t.Errorf("response mismatch: %v != %d", resp, i)
			}
			got[i] = true
		})
	}
	if len(c.pending) != 20 {
		t.Fatalf("pending = %d", len(c.pending))
	}
	s.RunFor(10 * sim.Second)
	if len(got) != 20 {
		t.Fatalf("completed %d of 20", len(got))
	}
}

func TestDeferredReply(t *testing.T) {
	s, server, client, _ := setup(3)
	Serve(server, 100, func(from vip.IP, body any, reply func(any, int)) {
		// Reply 5 seconds later, as a MOM would after running a job.
		s.After(5*sim.Second, func() { reply("done", 64) })
	})
	c := Dial(client, server.IP(), 100)
	var at sim.Time
	c.Call("job", 1024, func(resp any) { at = s.Now() })
	s.RunFor(sim.Minute)
	if at < sim.Time(5*sim.Second) {
		t.Fatalf("reply arrived too early: %v", at)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	s, server, client, _ := setup(4)
	Serve(server, 100, func(from vip.IP, body any, reply func(any, int)) {
		// Never replies.
	})
	c := Dial(client, server.IP(), 100)
	var got any = "unset"
	c.Call("x", 64, func(resp any) { got = resp })
	s.RunFor(sim.Second)
	c.Close()
	c.Close() // idempotent
	if got != nil {
		t.Fatalf("pending call not failed: %v", got)
	}
	c.Call("y", 64, func(resp any) { got = resp })
	if got != nil {
		t.Fatal("call on closed client not failed")
	}
	s.RunFor(sim.Second)
}

func TestTransportFailureFailsPending(t *testing.T) {
	s, server, _, m := setup(5)
	Serve(server, 100, func(from vip.IP, body any, reply func(any, int)) {})
	cfg := vip.StackConfig{GiveUp: sim.Minute}
	client2 := m.AddStack(vip.MustParseIP("10.0.0.3"), cfg)
	c := Dial(client2, server.IP(), 100)
	var got any = "unset"
	c.Call("x", 64, func(resp any) { got = resp })
	s.RunFor(sim.Second)
	m.SetUp(server.IP(), false)
	// Enqueue traffic so the transport notices the outage.
	c.Call("y", 64, func(resp any) {})
	s.RunFor(10 * sim.Minute)
	if got != nil {
		t.Fatalf("pending call survived transport death: %v", got)
	}
	if c.conn != nil {
		t.Fatal("client still holds the dead connection")
	}
}

func TestRedialAfterFailure(t *testing.T) {
	s, server, _, m := setup(6)
	served := 0
	Serve(server, 100, func(from vip.IP, body any, reply func(any, int)) {
		served++
		reply(body, 64)
	})
	cfg := vip.StackConfig{GiveUp: 30 * sim.Second}
	client := m.AddStack(vip.MustParseIP("10.0.0.4"), cfg)
	c := Dial(client, server.IP(), 100)
	var first any
	c.Call(1, 64, func(resp any) { first = resp })
	s.RunFor(5 * sim.Second)
	if first != 1 {
		t.Fatalf("first call failed: %v", first)
	}
	// Kill the path long enough for the conn to give up, then restore.
	m.SetUp(server.IP(), false)
	c.Call(2, 64, func(resp any) {})
	s.RunFor(5 * sim.Minute)
	m.SetUp(server.IP(), true)
	var second any
	c.Call(3, 64, func(resp any) { second = resp })
	s.RunFor(sim.Minute)
	if second != 3 {
		t.Fatalf("redial failed: %v", second)
	}
}
