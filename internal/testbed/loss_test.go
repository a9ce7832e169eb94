package testbed

import (
	"fmt"
	"sort"
	"testing"

	"wow/internal/faults"
	"wow/internal/ipop"
	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vm"
)

// adjacentPair picks two virtual IPs of 172.16.20.0/24 whose overlay
// addresses lie closest together: on a ring of a few dozen nodes they are
// neighbours.
func adjacentPair() [2]vip.IP {
	ips := make([]vip.IP, 0, 250)
	for i := 1; i <= 250; i++ {
		ips = append(ips, vip.MustParseIP(fmt.Sprintf("172.16.20.%d", i)))
	}
	sort.Slice(ips, func(a, b int) bool { return ipop.AddrForVIP(ips[a]).Less(ipop.AddrForVIP(ips[b])) })
	best, gap := 0, 2.0
	for i := 0; i+1 < len(ips); i++ {
		if d := ipop.AddrForVIP(ips[i+1]).Float64() - ipop.AddrForVIP(ips[i]).Float64(); d < gap {
			best, gap = i, d
		}
	}
	return [2]vip.IP{ips[best], ips[best+1]}
}

// TestTransferThroughRelayCrash: two workstations behind symmetric NATs, ring
// neighbours joined by a tunnel edge, run a TCP transfer while the fault
// injector crashes the edge's relay and restarts it. The crash loses what
// was on its way to the relay — tunnel frames with the overlay and virtual-IP
// packets inside, pings, link messages — and the symmetric NATs lose link
// requests throughout; every loss hands its payload back to the lists (under
// -tags packetdebug: poisons it, and panics on a second release or a use
// after it). The transfer must complete.
func TestTransferThroughRelayCrash(t *testing.T) {
	tb := Build(fastCfg(7, true))
	var syms []*vm.VM
	for i, ip := range adjacentPair() {
		name := fmt.Sprintf("sym%d", i)
		nat := natsim.NewNAT(name+"-nat", natsim.Config{Type: natsim.Symmetric}, tb.Net.Root().NextIP(), tb.Sim.Now)
		realm := tb.Net.AddRealm(name+"-lan", tb.Net.Root(), nat, phys.MustParseIP("10.77.0.10"))
		host := tb.Net.AddHost(name+"-host", tb.Net.AddSite(name+".example"), realm, computeHostCfg())
		v, err := tb.AddWorkstation(host, ip, vm.Spec{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		syms = append(syms, v)
		tb.Sim.RunFor(3 * sim.Second)
	}
	tb.Sim.RunFor(2 * sim.Minute)
	src, dst := syms[0], syms[1]
	edge := src.Node().Overlay().ConnectionTo(dst.Node().Overlay().Addr())
	if edge == nil || !edge.Tunneled() {
		t.Fatal("the symmetric workstations hold no tunnel edge: the test would be vacuous")
	}
	var relay *ipop.Node
	for _, r := range tb.Routers() {
		if r.Addr() == edge.Relays[0] {
			relay = r
		}
	}
	if relay == nil {
		t.Fatalf("the tunnel edge's relay %v is not a router", edge.Relays[0])
	}

	const size = 256 << 10
	got, closed := 0, false
	if err := dst.Stack().ListenTCP(5001, func(c *vip.Conn) {
		c.OnMessage(func(n int, _ any) { got += n })
		c.OnClose(func(error) { closed = true })
	}); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(tb.Sim, tb.Net)
	defer inj.Close()
	var restartErr error
	inj.Schedule(faults.CrashRestart{
		At:      500 * sim.Millisecond,
		Down:    5 * sim.Second,
		Kill:    relay.Stop,
		Restart: func() { restartErr = relay.Start(tb.Boot()) },
	})
	before := tb.Net.TotalStats()
	c := src.Stack().DialTCP(dst.IP(), 5001)
	for sent := 0; sent < size; sent += 32 << 10 {
		c.Send(32<<10, nil)
	}
	c.Close()
	start := tb.Sim.Now()
	for !closed && tb.Sim.Now().Sub(start) < 20*sim.Minute {
		tb.Sim.RunFor(250 * sim.Millisecond)
	}
	after := tb.Net.TotalStats()
	if !closed || got != size {
		t.Fatalf("transfer through the relay crash: closed %v, %d of %d bytes after %v", closed, got, size, tb.Sim.Now().Sub(start))
	}
	if restartErr != nil || len(inj.Timeline()) != 2 {
		t.Fatalf("the relay was not crashed and restarted: %v, %v", inj.TimelineString(), restartErr)
	}
	noport, boundary := after.Get("lost.noport")-before.Get("lost.noport"), after.Get("lost.boundary")-before.Get("lost.boundary")
	if noport == 0 || boundary == 0 {
		t.Errorf("%d packets lost at the crashed relay and %d at a boundary during the transfer, want some of each", noport, boundary)
	}
	t.Logf("transfer took %v; %d lost at the crashed relay, %d at boundaries", tb.Sim.Now().Sub(start), noport, boundary)
}
