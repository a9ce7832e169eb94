package vip_test

import (
	"testing"

	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vip/viptest"
)

func meshPair(latency sim.Duration) (*sim.Simulator, *vip.Stack, *vip.Stack) {
	s := sim.New(1)
	m := viptest.NewMesh(s, latency)
	return s, m.AddStack(vip.MustParseIP("172.16.1.2"), vip.StackConfig{}), m.AddStack(vip.MustParseIP("172.16.1.3"), vip.StackConfig{})
}

// TestAllocFreeBulkTransfer guards the hot-path rule's third clause over the
// carrier the middleware tests stand on: in a steady bulk transfer a data
// segment and the ACK that answers it — packets from the shard's list, the
// Ends array reused, timers re-armed, OnMessage called at the far end —
// allocate nothing. One run is a round trip's worth of segments, each
// carrying two message boundaries; the messages are queued beforehand.
func TestAllocFreeBulkTransfer(t *testing.T) {
	s, a, b := meshPair(5 * sim.Millisecond)
	msgs := 0
	b.ListenTCP(80, func(c *vip.Conn) { c.OnMessage(func(int, any) { msgs++ }) })
	c := a.DialTCP(b.IP(), 80)
	const total = 40000 // messages of half a segment
	for i := 0; i < total; i++ {
		c.Send(a.Config().MSS/2, nil)
	}
	roundTrip := func() { s.RunFor(10 * sim.Millisecond) }
	for i := 0; i < 100; i++ { // past slow start and the send queue's first trim
		roundTrip()
	}
	before, segs := msgs, a.Stats.Get("tcp.data_out")
	avg := testing.AllocsPerRun(200, roundTrip)
	if got := a.Stats.Get("tcp.data_out") - segs; got < 200*30 || msgs-before < 2*200*30 || msgs == total {
		t.Fatalf("201 round trips moved %d segments and %d messages (%d of %d delivered); measurement would be vacuous", got, msgs-before, msgs, total)
	}
	if vip.GuardsRelaxed {
		t.Logf("allocs/round trip under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per round trip of a steady transfer = %.2f, want 0", avg)
	}
}

// TestAllocFreePing: an answered echo — ping state and request from the
// shard's lists, the timeout armed with the state as its argument, the
// request sent back as the reply — allocates nothing.
func TestAllocFreePing(t *testing.T) {
	s, a, b := meshPair(5 * sim.Millisecond)
	answered := 0
	cb := func(ok bool, _ sim.Duration) {
		if ok {
			answered++
		}
	}
	ping := func() {
		a.Ping(b.IP(), 56, sim.Second, cb)
		s.RunFor(20 * sim.Millisecond)
	}
	for i := 0; i < 8; i++ {
		ping()
	}
	avg := testing.AllocsPerRun(200, ping)
	if answered != 8+201 {
		t.Fatalf("%d of %d pings answered; measurement would be vacuous", answered, 8+201)
	}
	if vip.GuardsRelaxed {
		t.Logf("allocs/ping under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per answered ping = %.2f, want 0", avg)
	}
}
