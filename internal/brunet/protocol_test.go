package brunet

import (
	"fmt"
	"testing"

	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
)

// TestStalePingGetsClose: a node holding a connection to a peer that no
// longer knows it (state wiped) must be told to drop the zombie.
func TestStalePingGetsClose(t *testing.T) {
	r := buildRing(t, 40, 6)
	a, b := r.nodes[1], r.nodes[4]
	if a.ConnectionTo(b.Addr()) == nil {
		// ensure some connection exists for the test
		a.sendCTM(b.Addr(), Shortcut, DeliverExact, Zero)
		r.s.RunFor(30 * sim.Second)
	}
	c := a.ConnectionTo(b.Addr())
	if c == nil {
		t.Skip("no connection available between chosen nodes")
	}
	// Wipe B completely and restart it fresh so it has no conn to A yet;
	// A's next keepalive ping must be answered with a close.
	b.Stop()
	h := r.net.AddHost("b-reborn", r.site, r.net.Root(), phys.HostConfig{})
	reborn := NewNode(h, b.Addr(), FastTestConfig())
	if err := reborn.Start([]URI{r.nodes[0].BootstrapURI()}); err != nil {
		t.Fatal(err)
	}
	r.nodes[4] = reborn
	r.s.RunFor(2 * sim.Minute)
	// A must no longer hold the stale conn (dropped by close or timeout),
	// and if it reconnected, the endpoint must be the reborn node's.
	if c2 := a.ConnectionTo(b.Addr()); c2 != nil && c2.EP == c.EP && c.EP.IP != h.IP() {
		t.Fatalf("stale connection survived: %v", c2)
	}
}

// TestEndpointRoaming: when a NATed peer's mapping changes, the public
// side adopts the new observed endpoint from the peer's pings.
func TestEndpointRoaming(t *testing.T) {
	r := buildRing(t, 41, 6)
	nat := natsim.NewNAT("roam", natsim.Config{Type: natsim.PortRestricted}, r.net.Root().NextIP(), r.s.Now)
	realm := r.net.AddRealm("roam", r.net.Root(), nat, phys.MustParseIP("10.5.0.2"))
	h := r.net.AddHost("roamer", r.site, realm, phys.HostConfig{})
	n := NewNode(h, AddrFromString("roaming-node"), FastTestConfig())
	if err := n.Start([]URI{r.nodes[0].BootstrapURI()}); err != nil {
		t.Fatal(err)
	}
	r.nodes = append(r.nodes, n)
	r.s.RunFor(sim.Minute)
	if !n.IsRoutable() {
		t.Fatal("roamer never joined")
	}

	nat.Rebind()
	r.s.RunFor(2 * sim.Minute)

	roamed := int64(0)
	for _, peer := range r.nodes {
		roamed += peer.Stats.Get("conn.ep_roamed")
	}
	if roamed == 0 {
		t.Fatal("no endpoint roaming after NAT rebind")
	}
	// Traffic must flow again.
	ok := false
	n.RegisterProto("t", func(src Addr, d AppData) { ok = true })
	r.nodes[2].SendTo(n.Addr(), DeliverExact, AppData{Proto: "t", Size: 10})
	r.s.RunFor(10 * sim.Second)
	if !ok {
		t.Fatal("traffic did not recover after rebind")
	}
}

// TestBusyBackoffRetries: a linking race loser behind inbound-hostile
// middleboxes must eventually win via randomized backoff retries.
func TestBusyBackoffRetries(t *testing.T) {
	r := buildRing(t, 42, 8)
	fw := natsim.NewFirewall("hostile", 0, r.s.Now)
	fw.BlockProto(phys.WireUDP)
	realm := r.net.AddRealm("hostile", r.net.Root(), fw, phys.MustParseIP("141.1.0.10"))
	h := r.net.AddHost("hostile-host", r.site, realm, phys.HostConfig{})
	cfg := FastTestConfig()
	cfg.Transport = "tcp"
	n := NewNode(h, AddrFromString("backoff-node"), cfg)
	if err := n.Start([]URI{URI{Transport: "tcp", EP: r.nodes[0].BootstrapURI().EP}}); err != nil {
		t.Fatal(err)
	}
	r.nodes = append(r.nodes, n)
	r.s.RunFor(3 * sim.Minute)
	if !n.IsRoutable() {
		t.Fatal("never became routable")
	}
	// It must hold near links beyond the bootstrap.
	if n.roleCount[StructuredNear] < 2 {
		t.Fatalf("one-sided ring position: %v", n.Connections())
	}
}

// TestLeafRotationOnDeadBootstrap: if the first bootstrap node is dead,
// joining still succeeds via the others.
func TestLeafRotationOnDeadBootstrap(t *testing.T) {
	r := buildRing(t, 43, 6)
	dead := phys.Endpoint{IP: phys.MustParseIP("9.9.9.9"), Port: 1}
	boot := []URI{
		UDPURI(dead), // unreachable
		r.nodes[0].BootstrapURI(),
		r.nodes[1].BootstrapURI(),
	}
	h := r.net.AddHost("late", r.site, r.net.Root(), phys.HostConfig{})
	n := NewNode(h, AddrFromString("late-joiner"), FastTestConfig())
	if err := n.Start(boot); err != nil {
		t.Fatal(err)
	}
	r.nodes = append(r.nodes, n)
	r.s.RunFor(3 * sim.Minute)
	if !n.IsRoutable() {
		t.Fatal("join wedged on dead bootstrap entry")
	}
}

// TestLeaveIsIdempotentAndStopsTraffic covers the graceful-departure path.
func TestLeaveIsIdempotent(t *testing.T) {
	r := buildRing(t, 44, 5)
	n := r.nodes[3]
	n.Leave()
	n.Leave()
	if n.Up() {
		t.Fatal("up after leave")
	}
	r.s.RunFor(30 * sim.Second)
	for _, p := range r.nodes[:3] {
		if p.ConnectionTo(n.Addr()) != nil {
			t.Fatal("peer kept connection after graceful leave")
		}
	}
}

// TestConnectionTransportLabels sanity-checks diagnostics for both
// transports.
func TestConnectionTransportLabels(t *testing.T) {
	r := buildRing(t, 45, 4)
	for _, c := range r.nodes[0].Connections() {
		if c.Transport() != "udp" {
			t.Fatalf("public UDP ring conn labelled %q", c.Transport())
		}
	}
	// One TCP node.
	cfg := FastTestConfig()
	cfg.Transport = "tcp"
	h := r.net.AddHost("tcp-node", r.site, r.net.Root(), phys.HostConfig{})
	n := NewNode(h, AddrFromString("tcp-node"), cfg)
	if err := n.Start([]URI{URI{Transport: "tcp", EP: r.nodes[0].BootstrapURI().EP}}); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(sim.Minute)
	found := false
	for _, c := range n.Connections() {
		if c.Transport() == "tcp" {
			found = true
			if c.Stream == nil {
				t.Fatal("tcp conn without stream")
			}
		}
	}
	if !found {
		t.Fatal("no tcp connections formed")
	}
	_ = fmt.Sprintf("%v", n)
}
