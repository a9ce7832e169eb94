// Command wow-testbed builds the paper's Figure-1 deployment — 33 compute
// VMs across six firewalled domains plus a PlanetLab router overlay —
// inside the simulator, lets it self-organize, and prints a detailed
// report of the resulting overlay: ring state, per-node connections,
// NAT-learned URIs, and cross-domain reachability.
package main

import (
	"flag"
	"fmt"
	"sort"

	"wow/internal/brunet"
	"wow/internal/sim"
	"wow/internal/testbed"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	routers := flag.Int("routers", 118, "PlanetLab router nodes")
	plHosts := flag.Int("pl-hosts", 20, "PlanetLab hosts")
	shortcuts := flag.Bool("shortcuts", true, "enable the ShortcutConnectionOverlord")
	pingMatrix := flag.Bool("ping-matrix", false, "measure an all-sites virtual ping matrix")
	flag.Parse()

	fmt.Printf("building WOW testbed: %d routers on %d PlanetLab hosts, 33 compute VMs, shortcuts=%v\n",
		*routers, *plHosts, *shortcuts)
	tb := testbed.Build(testbed.Config{
		Seed:           *seed,
		Shortcuts:      *shortcuts,
		Routers:        *routers,
		PlanetLabHosts: *plHosts,
	})

	fmt.Printf("\noverlay settled at t=%s\n", tb.Sim.Now())
	fmt.Printf("routable compute nodes: %d/%d\n\n", tb.RoutableWorkstations(), len(tb.Workstations()))

	fmt.Println("node       vip           site              speed  conns  types")
	for _, v := range tb.Workstations() {
		conns := v.Node().Overlay().Connections()
		counts := map[brunet.ConnType]int{}
		for _, c := range conns {
			for _, t := range c.Types() {
				counts[t]++
			}
		}
		fmt.Printf("%-10s %-13s %-17s %5.2f %6d  leaf=%d near=%d far=%d shortcut=%d\n",
			v.Name(), v.IP(), v.Host().Site.Name, v.Spec().CPUSpeed, len(conns),
			counts[brunet.Leaf], counts[brunet.StructuredNear],
			counts[brunet.StructuredFar], counts[brunet.Shortcut])
	}

	fmt.Println("\nexample URI lists (NAT-learned public endpoints first):")
	for _, name := range []string{"node003", "node017", "node032", "node034"} {
		v := tb.VM(name)
		fmt.Printf("  %s:", name)
		for _, u := range v.Node().Overlay().URIs() {
			fmt.Printf(" %s", u)
		}
		fmt.Println()
	}

	if *pingMatrix {
		fmt.Println("\ncross-domain virtual ping RTTs (ms), one probe node per site:")
		probes := []string{"node003", "node017", "node030", "node032", "node033", "node034"}
		sort.Strings(probes)
		fmt.Printf("%10s", "")
		for _, q := range probes {
			fmt.Printf(" %9s", q)
		}
		fmt.Println()
		for _, p := range probes {
			fmt.Printf("%10s", p)
			for _, q := range probes {
				if p == q {
					fmt.Printf(" %9s", "-")
					continue
				}
				rtt := -1.0
				tb.VM(p).Stack().Ping(tb.VM(q).IP(), 64, 10*sim.Second, func(ok bool, d sim.Duration) {
					if ok {
						rtt = d.Seconds() * 1000
					}
				})
				tb.Sim.RunFor(11 * sim.Second)
				if rtt < 0 {
					fmt.Printf(" %9s", "lost")
				} else {
					fmt.Printf(" %9.1f", rtt)
				}
			}
			fmt.Println()
		}
	}
}
