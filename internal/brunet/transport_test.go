package brunet

import (
	"fmt"
	"testing"

	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
)

// tcpBootURI derives a TCP-transport bootstrap URI from a running node
// (same port number, TCP wire namespace).
func tcpBootURI(n *Node) URI {
	return URI{Transport: "tcp", EP: n.BootstrapURI().EP}
}

func TestRingOverTCPTransport(t *testing.T) {
	r := newOverlayRig(30)
	cfg := FastTestConfig()
	cfg.Transport = "tcp"
	for i := 0; i < 10; i++ {
		h := r.net.AddHost(fmt.Sprintf("t%02d", i), r.site, r.net.Root(), phys.HostConfig{})
		n := NewNode(h, AddrFromString(fmt.Sprintf("t%02d", i)), cfg)
		var boot []URI
		if len(r.nodes) > 0 {
			boot = []URI{tcpBootURI(r.nodes[0])}
		}
		if err := n.Start(boot); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, n)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(60 * sim.Second)
	for _, n := range r.nodes {
		if !n.IsRoutable() {
			t.Fatalf("node %s not routable over TCP transport", n.Addr())
		}
	}
	// Every structured connection should ride a stream.
	tcpConns, udpConns := 0, 0
	for _, n := range r.nodes {
		for _, c := range n.Connections() {
			if c.Transport() == "tcp" {
				tcpConns++
			} else {
				udpConns++
			}
		}
	}
	if tcpConns == 0 {
		t.Fatal("no TCP-transport connections formed")
	}
	if udpConns != 0 {
		t.Fatalf("%d UDP connections in an all-TCP ring", udpConns)
	}
	assertRingConsistent(t, r)
}

func TestAllPairsRoutingOverTCP(t *testing.T) {
	r := newOverlayRig(31)
	cfg := FastTestConfig()
	cfg.Transport = "tcp"
	for i := 0; i < 8; i++ {
		h := r.net.AddHost(fmt.Sprintf("t%02d", i), r.site, r.net.Root(), phys.HostConfig{})
		n := NewNode(h, AddrFromString(fmt.Sprintf("tcp-n%02d", i)), cfg)
		var boot []URI
		if len(r.nodes) > 0 {
			boot = []URI{tcpBootURI(r.nodes[0])}
		}
		if err := n.Start(boot); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, n)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(60 * sim.Second)
	got := map[Addr]int{}
	for _, n := range r.nodes {
		n := n
		n.RegisterProto("t", func(src Addr, d AppData) { got[n.Addr()]++ })
	}
	for _, a := range r.nodes {
		for _, b := range r.nodes {
			if a != b {
				a.SendTo(b.Addr(), DeliverExact, AppData{Proto: "t", Size: 100})
			}
		}
	}
	r.s.RunFor(15 * sim.Second)
	for _, n := range r.nodes {
		if got[n.Addr()] != len(r.nodes)-1 {
			t.Fatalf("node %s received %d of %d", n.Addr(), got[n.Addr()], len(r.nodes)-1)
		}
	}
}

func TestMixedTransportRing(t *testing.T) {
	// UDP-advertising and TCP-advertising nodes in one ring: every pair
	// can link because all nodes accept both transports.
	r := buildRing(t, 32, 6) // six UDP nodes
	cfg := FastTestConfig()
	cfg.Transport = "tcp"
	for i := 0; i < 6; i++ {
		h := r.net.AddHost(fmt.Sprintf("mix%02d", i), r.site, r.net.Root(), phys.HostConfig{})
		n := NewNode(h, AddrFromString(fmt.Sprintf("mix%02d", i)), cfg)
		if err := n.Start([]URI{tcpBootURI(r.nodes[0])}); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, n)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(60 * sim.Second)
	for _, n := range r.nodes {
		if !n.IsRoutable() {
			t.Fatalf("node %s not routable in mixed ring", n.Addr())
		}
	}
	assertRingConsistent(t, r)
}

func TestTCPTransportThroughUDPBlockingFirewall(t *testing.T) {
	// A site whose firewall drops ALL UDP: the paper's URI abstraction
	// exists precisely so links can fall back to other transports.
	r := buildRing(t, 33, 8)
	fw := natsim.NewFirewall("no-udp-fw", 0, r.s.Now)
	fw.BlockProto(phys.WireUDP)
	realm := r.net.AddRealm("udp-hostile", r.net.Root(), fw, phys.MustParseIP("140.1.0.10"))
	h := r.net.AddHost("hostile-host", r.site, realm, phys.HostConfig{})

	cfg := FastTestConfig()
	cfg.Transport = "tcp"
	n := NewNode(h, AddrFromString("udp-blocked-node"), cfg)
	if err := n.Start([]URI{tcpBootURI(r.nodes[0])}); err != nil {
		t.Fatal(err)
	}
	r.nodes = append(r.nodes, n)
	r.s.RunFor(2 * sim.Minute)
	if !n.IsRoutable() {
		total := r.net.TotalStats()
		t.Fatalf("TCP-transport node behind UDP-blocking firewall never joined (conns=%d, lost.boundary=%d)",
			len(n.Connections()), total.Get("lost.boundary"))
	}
	// And traffic flows both ways.
	ok := false
	n.RegisterProto("t", func(src Addr, d AppData) { ok = true })
	r.nodes[2].SendTo(n.Addr(), DeliverExact, AppData{Proto: "t", Size: 64})
	r.s.RunFor(10 * sim.Second)
	if !ok {
		t.Fatal("packet to firewalled TCP node lost")
	}
	if total := r.net.TotalStats(); total.Get("lost.boundary") == 0 {
		t.Log("note: no UDP was even attempted toward the blocked site")
	}
}

func TestStreamDeathDropsConnection(t *testing.T) {
	r := newOverlayRig(34)
	cfg := FastTestConfig()
	cfg.Transport = "tcp"
	var nodes []*Node
	for i := 0; i < 4; i++ {
		h := r.net.AddHost(fmt.Sprintf("s%02d", i), r.site, r.net.Root(), phys.HostConfig{})
		n := NewNode(h, AddrFromString(fmt.Sprintf("s%02d", i)), cfg)
		var boot []URI
		if len(nodes) > 0 {
			boot = []URI{tcpBootURI(nodes[0])}
		}
		if err := n.Start(boot); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		r.nodes = append(r.nodes, n)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(30 * sim.Second)
	victim := nodes[2]
	victim.Host().SetUp(false) // sever the host: streams die
	r.s.RunFor(5 * sim.Minute)
	for _, n := range nodes {
		if n == victim {
			continue
		}
		if c := n.ConnectionTo(victim.Addr()); c != nil {
			t.Fatalf("node %s still connected to severed peer", n.Addr())
		}
	}
}
