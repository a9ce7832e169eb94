// Command quickstart is the smallest possible WOW: a handful of public
// overlay routers, two virtual workstations behind NATs in different
// domains, a virtual ping between them, and a live view of the
// self-organized shortcut connection forming — the paper's core loop in
// ~100 lines.
package main

import (
	"fmt"

	"wow/internal/brunet"
	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/vip"
	"wow/internal/vm"
)

func main() {
	// 1. A simulated wide area: sites 25 ms apart, on the engine at one
	// shard (its shard 0 is the whole timeline).
	eng := sim.NewSharded(42, 1, 1)
	s := eng.Shard(0)
	net := phys.NewShardedNetwork(eng, phys.UniformLatency(
		phys.PathModel{OneWay: 500 * sim.Microsecond},
		phys.PathModel{OneWay: 12500 * sim.Microsecond},
	))

	// 2. A WOW with shortcut creation enabled.
	wow := testbed.NewWOW(testbed.Options{Shortcuts: true})

	// 3. Two dozen public bootstrap routers (the paper used 118 on
	// PlanetLab; any overlay node on the public Internet works).
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("router%d", i)
		host := net.AddHost(name, net.AddSite(name), net.Root(), phys.HostConfig{})
		if _, err := wow.AddRouter(host, name); err != nil {
			panic(err)
		}
		s.RunFor(2 * sim.Second)
	}
	s.RunFor(30 * sim.Second)
	fmt.Printf("bootstrap overlay up: %d routers\n", len(wow.Routers()))

	// 4. Two virtual workstations behind port-restricted NATs in
	// different domains. No port forwarding, no admin coordination:
	// each just knows one public router URI.
	addStation := func(name, privBase, ip string) *vm.VM {
		site := net.AddSite(name + "-site")
		nat := natsim.NewNAT(name+"-nat", natsim.Config{Type: natsim.PortRestricted},
			net.Root().NextIP(), s.Now)
		realm := net.AddRealm(name+"-lan", net.Root(), nat, phys.MustParseIP(privBase))
		host := net.AddHost(name+"-host", site, realm, phys.HostConfig{
			ServiceTime: 400 * sim.Microsecond, Bandwidth: 1.7e6,
		})
		v, err := wow.AddWorkstation(host, vip.MustParseIP(ip), vm.Spec{Name: name})
		if err != nil {
			panic(err)
		}
		return v
	}
	alice := addStation("alice", "192.168.1.10", "172.16.1.2")
	bob := addStation("bob", "10.0.0.10", "172.16.1.3")

	s.RunFor(30 * sim.Second)
	fmt.Printf("workstations routable: %d/2\n", wow.RoutableWorkstations())

	// 5. Ping from alice to bob once per second and watch the virtual
	// network adapt: multi-hop at first, then the traffic-inspecting
	// ShortcutConnectionOverlord hole-punches a direct link and the RTT
	// collapses.
	bobAddr := bob.Node().Addr()
	hadShortcut := false
	tick := s.Tick(sim.Second, 0, func() {
		alice.Stack().Ping(bob.IP(), 64, 2*sim.Second, func(ok bool, rtt sim.Duration) {
			t := int(s.Now().Seconds())
			if !ok {
				fmt.Printf("t=%3ds  ping bob: timeout\n", t)
				return
			}
			note := ""
			if c := alice.Node().Overlay().ConnectionTo(bobAddr); c != nil && c.Has(brunet.Shortcut) {
				if !hadShortcut {
					note = "   <- direct shortcut connection established (hole-punched through both NATs)"
					hadShortcut = true
				} else {
					note = "   (direct)"
				}
			}
			if t%5 == 0 || note != "" {
				fmt.Printf("t=%3ds  ping bob: %5.1f ms%s\n", t, rtt.Seconds()*1000, note)
			}
		})
	})
	s.RunFor(90 * sim.Second)
	tick.Stop()

	c := alice.Node().Overlay().ConnectionTo(bobAddr)
	fmt.Printf("\nalice's connection to bob: %v\n", c)
	fmt.Printf("overlay size: %d nodes\n", wow.OverlaySize())
}
