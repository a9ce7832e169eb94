package vip_test

import (
	"testing"

	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vip/viptest"
)

// TestTCPFINAckedAcrossRTO: a sender closes with two segments in flight, so
// data and FIN leave together, and is cut off before any ACK returns. Its RTO
// goes back to the first unacknowledged byte and marks the FIN for a resend
// after the data. Back on the wire, the first cumulative ACK it hears already
// covers the FIN — the peer got everything the first time. The sender must
// take that ACK as its FIN's and finish, not wait for a FIN resend that the
// send frontier, already past the data, never makes.
func TestTCPFINAckedAcrossRTO(t *testing.T) {
	s := sim.New(1)
	m := viptest.NewMesh(s, 20*sim.Millisecond)
	ipA, ipB := vip.MustParseIP("172.16.1.2"), vip.MustParseIP("172.16.1.3")
	a, b := m.AddStack(ipA, vip.StackConfig{}), m.AddStack(ipB, vip.StackConfig{})
	rcvd := 0
	b.ListenTCP(80, func(c *vip.Conn) { c.OnMessage(func(size int, _ any) { rcvd += size }) })
	c := a.DialTCP(ipB, 80)
	s.RunFor(sim.Second)
	if !c.Established() {
		t.Fatal("handshake failed")
	}
	var closeErr error
	closed := false
	c.OnClose(func(err error) { closed, closeErr = true, err })

	size := a.Config().MSS + 1
	c.Send(size, nil)
	c.Close()
	m.SetUp(ipA, false) // data and FIN are on the wire; no ACK gets back
	rtos := a.Stats.Get("tcp.rto")
	s.RunFor(1500 * sim.Millisecond)
	if a.Stats.Get("tcp.rto") == rtos {
		t.Fatal("no RTO while the sender was cut off; the scenario did not happen")
	}
	if rcvd != size {
		t.Fatalf("peer received %d of %d bytes before the sender came back", rcvd, size)
	}
	m.SetUp(ipA, true)
	s.RunFor(sim.Minute)
	if !closed || closeErr != nil || !c.Closed() {
		t.Fatalf("sender not finished a minute after reconnecting: closed=%v err=%v Closed()=%v acked=%d of %d",
			closed, closeErr, c.Closed(), c.AckedBytes(), size)
	}
}
