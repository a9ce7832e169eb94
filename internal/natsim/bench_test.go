package natsim

import (
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

// Both sides of the flow memo, per device: steady is one flow for the whole
// run (every packet follows its predecessor: all hits), roundrobin256 is the
// benchmark drill's pattern (256 flows in turn: every outbound a miss, its
// reply a hit), two-flows-alternating is two transfers through one device,
// packet by packet. One op is an Outbound and the Inbound that answers it.

// drillFlow is flow i of the benchmark drill (bench/drills.go): sixteen
// inner hosts, thirty-two peers, a port apiece.
func drillFlow(i int) (inner, peer phys.Endpoint) {
	return phys.Endpoint{IP: drillLAN + phys.IP(i%16), Port: uint16(4000 + i)},
		phys.Endpoint{IP: drillWAN + phys.IP(i%32), Port: uint16(5000 + i%7)}
}

var drillLAN, drillWAN = phys.MustParseIP("10.0.0.10"), phys.MustParseIP("128.9.0.1")

func benchFlows(b *testing.B, flows int, dev phys.Boundary) {
	// Establish every flow and learn how the peer sees it.
	seenAs := make([]phys.Endpoint, flows)
	for i := range seenAs {
		inner, peer := drillFlow(i)
		p := phys.Packet{Src: inner, Dst: peer, Proto: phys.WireUDP}
		dev.Outbound(0, &p)
		seenAs[i] = p.Src
	}
	i := 0
	var p, q phys.Packet // escape through the interface: allocated once, not per packet
	pair := func() {
		inner, peer := drillFlow(i)
		p = phys.Packet{Src: inner, Dst: peer, Proto: phys.WireUDP}
		q = phys.Packet{Src: peer, Dst: seenAs[i], Proto: phys.WireUDP}
		if !dev.Outbound(0, &p) || !dev.Inbound(0, &q) || p.Src != seenAs[i] || q.Dst != inner {
			b.Fatalf("flow %d mistranslated: out as %v, in to %v", i, p.Src, q.Dst)
		}
		if i++; i == flows {
			i = 0
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		pair()
	}
	b.StopTimer()
	if a := testing.AllocsPerRun(flows, pair); a != 0 {
		b.Fatalf("%.2f allocs per round trip, want 0", a)
	}
}

var benchPatterns = []struct {
	name  string
	flows int
}{{"steady", 1}, {"roundrobin256", 256}, {"two-flows-alternating", 2}}

func BenchmarkTranslate(b *testing.B) {
	for _, tt := range []struct {
		name string
		typ  NATType
	}{{"cone", FullCone}, {"restricted", RestrictedCone}, {"port_restricted", PortRestricted}, {"symmetric", Symmetric}} {
		for _, pat := range benchPatterns {
			b.Run(tt.name+"/"+pat.name, func(b *testing.B) {
				nat := NewNAT("nat", Config{Type: tt.typ}, phys.MustParseIP("128.227.0.1"), func() sim.Time { return 0 })
				benchFlows(b, pat.flows, nat)
			})
		}
	}
}

func BenchmarkPinhole(b *testing.B) {
	for _, pat := range benchPatterns[:2] {
		b.Run(pat.name, func(b *testing.B) {
			benchFlows(b, pat.flows, NewFirewall("fw", 0, func() sim.Time { return 0 }))
		})
	}
}
