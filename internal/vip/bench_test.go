package vip

import (
	"testing"

	"wow/internal/sim"
)

// BenchmarkTCPSegment times one data segment and its ACK between two stacks
// joined by a 1 ms wire, on a clean wire and with every hundredth packet of
// the data direction lost: a bulk transfer of one message per segment, the
// sender keeping a few windows queued ahead of the ACKs; ns/op is ns per
// segment, Send to OnMessage. Before the clock starts it asserts that a
// round trip's worth of segments allocates nothing.
func BenchmarkTCPSegment(b *testing.B) {
	for _, tc := range []struct {
		name      string
		dropEvery int
	}{{"clean", 0}, {"lossy", 100}} {
		b.Run(tc.name, func(b *testing.B) {
			s, sa, sb, wa, _ := wiredStacks(1, sim.Millisecond)
			mss := sa.cfg.MSS
			rcvd := 0
			sb.ListenTCP(80, func(c *Conn) { c.OnMessage(func(size int, _ any) { rcvd += size }) })
			c := sa.DialTCP(sb.IP(), 80)
			// roundTrip runs one RTT and tops the send queue up to four
			// windows ahead of what is acknowledged.
			roundTrip := func() {
				for c.sndBytes-c.AckedBytes() < 4*sa.cfg.Window*mss {
					c.Send(mss, nil)
				}
				s.RunFor(2 * sim.Millisecond)
			}
			for c.AckedBytes() < 8192*mss { // past slow start and the queue's first trim
				roundTrip()
			}
			if avg := testing.AllocsPerRun(50, roundTrip); avg != 0 && !GuardsRelaxed {
				b.Fatalf("%.0f allocs per round trip of a steady transfer, want 0", avg)
			}
			wa.dropEvery = tc.dropEvery
			from := c.AckedBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for c.AckedBytes() < from+b.N*mss {
				roundTrip()
			}
			b.StopTimer()
			wa.dropEvery = 0
			for i := 0; rcvd < c.sndBytes && i < 10000; i++ {
				s.RunFor(2 * sim.Millisecond)
			}
			if rcvd != c.sndBytes {
				b.Fatalf("receiver got %d of %d bytes", rcvd, c.sndBytes)
			}
		})
	}
}

// BenchmarkPing times one answered echo over the same wire and asserts it
// allocates nothing.
func BenchmarkPing(b *testing.B) {
	s, sa, sb, _, _ := wiredStacks(1, sim.Millisecond)
	answered := 0
	cb := func(ok bool, _ sim.Duration) {
		if ok {
			answered++
		}
	}
	ping := func() {
		sa.Ping(sb.IP(), 64, sim.Second, cb)
		s.RunFor(3 * sim.Millisecond)
	}
	ping()
	if avg := testing.AllocsPerRun(100, ping); avg != 0 && !GuardsRelaxed {
		b.Fatalf("%.0f allocs per answered ping, want 0", avg)
	}
	answered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping()
	}
	b.StopTimer()
	if answered != b.N {
		b.Fatalf("%d of %d pings answered", answered, b.N)
	}
}
