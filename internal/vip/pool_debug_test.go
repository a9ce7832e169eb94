//go:build packetdebug

package vip

import (
	"strings"
	"testing"

	"wow/internal/sim"
)

// mustPanic runs f and checks that it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", r, want)
		}
	}()
	f()
}

// A pooled packet released twice, or entering the stack after its release,
// panics and names both sites; one built outside the stack is never marked.
func TestPoolDebugPacket(t *testing.T) {
	_, a, _, wa, _ := wiredStacks(1, sim.Millisecond)
	p := a.packet(a.IP(), ProtoUDP, 100)
	a.release(p, "first site")
	mustPanic(t, "double release of packet in second site (first released in first site)",
		func() { a.release(p, "second site") })
	mustPanic(t, "use of released packet in send (released in first site)", func() { a.send(p) })
	mustPanic(t, "use of released packet in receive (released in first site)", func() { wa.recv(p) })

	own := &Packet{Src: a.IP(), Dst: a.IP(), Proto: ProtoUDP}
	a.release(own, "x")
	a.release(own, "y")
	own.Live(a.sim, "z")
}

// A parked segment that was released behind the connection's back panics
// when the stream reaches it.
func TestPoolDebugParkedSegment(t *testing.T) {
	s, a, b, wa, _ := wiredStacks(5, 5*sim.Millisecond)
	var srv *Conn
	b.ListenTCP(80, func(c *Conn) { srv = c })
	c := a.DialTCP(b.IP(), 80)
	s.RunFor(sim.Second)
	wa.dropEvery = 1
	c.Send(1400, nil)
	wa.dropEvery = 0
	c.Send(1400, nil)
	s.RunFor(20 * sim.Millisecond)
	if srv == nil || srv.OOLen() != 1 {
		t.Fatal("second segment not parked")
	}
	b.release(srv.oo[1400], "behind its back")
	mustPanic(t, "use of released packet in drain (released in behind its back)", func() { s.RunFor(10 * sim.Second) })
}

// A stack whose carrier has moved to another shard's clock panics as soon
// as it touches the pool it was built with.
func TestPoolDebugWrongShard(t *testing.T) {
	_, a, _, wa, _ := wiredStacks(1, sim.Millisecond)
	p := a.packet(a.IP(), ProtoUDP, 100)
	wa.s = sim.New(2)
	mustPanic(t, "vip: acquire on a stack whose carrier runs on another shard", func() { a.packet(a.IP(), ProtoUDP, 100) })
	mustPanic(t, "vip: here on a stack whose carrier runs on another shard", func() { a.release(p, "here") })
}
