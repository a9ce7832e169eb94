package natsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wow/internal/phys"
	"wow/internal/sim"
)

// rig builds a public network with helpers to hang NATed realms off it.
type rig struct {
	s    *sim.Simulator
	net  *phys.Network
	site *phys.Site
}

func newRig(seed int64) *rig {
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 20 * sim.Millisecond},
	))
	return &rig{s: s, net: net, site: net.AddSite("site")}
}

func (r *rig) publicHost(name string) *phys.Host {
	return r.net.AddHost(name, r.site, r.net.Root(), phys.HostConfig{})
}

func (r *rig) natRealm(name string, cfg Config, outer *phys.Realm, base string) (*phys.Realm, *NAT) {
	pub := r.net.Root().NextIP()
	if outer != r.net.Root() {
		pub = outer.NextIP()
	}
	nat := NewNAT(name, cfg, pub, r.s.Now)
	realm := r.net.AddRealm(name, outer, nat, phys.MustParseIP(base))
	return realm, nat
}

// echo sets up an echo responder on h and returns a counter of echoes.
func echo(h *phys.Host, port uint16) (*phys.UDPSock, *int) {
	sock, err := h.Listen(port)
	if err != nil {
		panic(err)
	}
	n := new(int)
	sock.OnRecv = func(p *phys.Packet) {
		*n++
		sock.Send(p.Src, p.Size, "echo")
	}
	return sock, n
}

func TestNATTypeString(t *testing.T) {
	names := map[NATType]string{
		FullCone: "full-cone", RestrictedCone: "restricted-cone",
		PortRestricted: "port-restricted", Symmetric: "symmetric",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if NATType(99).String() != "NATType(99)" {
		t.Error("unknown type formatting")
	}
}

// A NATed client can reach a public server and receive the reply through
// the mapping; the server observes the NAT's public endpoint.
func TestOutboundMappingAndReply(t *testing.T) {
	r := newRig(1)
	server := r.publicHost("server")
	realm, nat := r.natRealm("homenat", Config{Type: PortRestricted}, r.net.Root(), "10.0.0.1")
	client := r.net.AddHost("client", r.site, realm, phys.HostConfig{})

	ssock, _ := server.Listen(500)
	var observed phys.Endpoint
	ssock.OnRecv = func(p *phys.Packet) {
		observed = p.Src
		ssock.Send(p.Src, 10, "reply")
	}
	csock, _ := client.Listen(0)
	got := 0
	csock.OnRecv = func(p *phys.Packet) { got++ }
	csock.Send(phys.Endpoint{IP: server.IP(), Port: 500}, 10, "hi")
	r.s.Run()

	if got != 1 {
		t.Fatal("reply did not traverse NAT")
	}
	if observed.IP != nat.PublicIP() {
		t.Fatalf("server saw %v, want NAT public IP %v", observed.IP, nat.PublicIP())
	}
	if observed.IP == client.IP() {
		t.Fatal("private address leaked")
	}
	if nat.Mappings() != 1 {
		t.Fatalf("mappings = %d", nat.Mappings())
	}
}

// Unsolicited inbound to a NAT public port with no mapping is dropped.
func TestUnsolicitedInboundDropped(t *testing.T) {
	r := newRig(1)
	outsider := r.publicHost("outsider")
	realm, nat := r.natRealm("nat", Config{Type: FullCone}, r.net.Root(), "10.0.0.1")
	inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})
	_, n := echo(inside, 100)
	osock, _ := outsider.Listen(0)
	osock.Send(phys.Endpoint{IP: nat.PublicIP(), Port: 4242}, 10, nil)
	r.s.Run()
	if *n != 0 {
		t.Fatal("unsolicited packet delivered")
	}
	if nat.drops[dropNoMapping] != 1 {
		t.Fatalf("drops = %v", nat.drops)
	}
}

// Full-cone: once a mapping exists, a third party can send through it.
// Port-restricted: the same third-party packet is filtered.
func TestConeFiltering(t *testing.T) {
	for _, tc := range []struct {
		typ      NATType
		thirdOK  bool
		wantDrop int
	}{
		{FullCone, true, -1},
		{RestrictedCone, false, dropFiltered},
		{PortRestricted, false, dropFiltered},
	} {
		r := newRig(1)
		peer := r.publicHost("peer")
		third := r.publicHost("third")
		realm, nat := r.natRealm("nat", Config{Type: tc.typ}, r.net.Root(), "10.0.0.1")
		inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})

		isock, _ := inside.Listen(100)
		rcvd := 0
		isock.OnRecv = func(p *phys.Packet) { rcvd++ }

		// Inside contacts peer to open a mapping; learn the public EP.
		var pub phys.Endpoint
		psock, _ := peer.Listen(600)
		psock.OnRecv = func(p *phys.Packet) { pub = p.Src }
		isock.Send(phys.Endpoint{IP: peer.IP(), Port: 600}, 10, nil)
		r.s.Run()
		if pub.IsZero() {
			t.Fatalf("%v: mapping never observed", tc.typ)
		}

		// Third party sends to the mapping.
		tsock, _ := third.Listen(0)
		tsock.Send(pub, 10, nil)
		r.s.Run()
		if tc.thirdOK && rcvd != 1 {
			t.Errorf("%v: third-party packet dropped, want delivered", tc.typ)
		}
		if !tc.thirdOK {
			if rcvd != 0 {
				t.Errorf("%v: third-party packet delivered, want filtered", tc.typ)
			}
			if nat.drops[tc.wantDrop] != 1 {
				t.Errorf("%v: drops = %v", tc.typ, nat.drops)
			}
		}
	}
}

// Restricted cone admits any port from a contacted IP; port-restricted
// requires the exact port.
func TestRestrictedVsPortRestricted(t *testing.T) {
	for _, tc := range []struct {
		typ    NATType
		wantOK bool
	}{{RestrictedCone, true}, {PortRestricted, false}} {
		r := newRig(1)
		peer := r.publicHost("peer")
		realm, _ := r.natRealm("nat", Config{Type: tc.typ}, r.net.Root(), "10.0.0.1")
		inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})

		isock, _ := inside.Listen(100)
		rcvd := 0
		isock.OnRecv = func(p *phys.Packet) { rcvd++ }

		var pub phys.Endpoint
		p600, _ := peer.Listen(600)
		p600.OnRecv = func(p *phys.Packet) { pub = p.Src }
		isock.Send(phys.Endpoint{IP: peer.IP(), Port: 600}, 10, nil)
		r.s.Run()

		// Reply from a *different port* on the same peer IP.
		p601, _ := peer.Listen(601)
		p601.Send(pub, 10, nil)
		r.s.Run()
		if tc.wantOK && rcvd != 1 {
			t.Errorf("%v: same-IP different-port dropped", tc.typ)
		}
		if !tc.wantOK && rcvd != 0 {
			t.Errorf("%v: same-IP different-port admitted", tc.typ)
		}
	}
}

// Symmetric NATs allocate different public ports per destination.
func TestSymmetricPerDestinationPorts(t *testing.T) {
	r := newRig(1)
	p1 := r.publicHost("p1")
	p2 := r.publicHost("p2")
	realm, nat := r.natRealm("nat", Config{Type: Symmetric}, r.net.Root(), "10.0.0.1")
	inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})

	var e1, e2 phys.Endpoint
	s1, _ := p1.Listen(700)
	s1.OnRecv = func(p *phys.Packet) { e1 = p.Src }
	s2, _ := p2.Listen(700)
	s2.OnRecv = func(p *phys.Packet) { e2 = p.Src }

	isock, _ := inside.Listen(100)
	isock.Send(phys.Endpoint{IP: p1.IP(), Port: 700}, 10, nil)
	isock.Send(phys.Endpoint{IP: p2.IP(), Port: 700}, 10, nil)
	r.s.Run()

	if e1.IsZero() || e2.IsZero() {
		t.Fatal("probes not delivered")
	}
	if e1.Port == e2.Port {
		t.Fatal("symmetric NAT reused the public port across destinations")
	}
	if nat.Mappings() != 2 {
		t.Fatalf("mappings = %d, want 2", nat.Mappings())
	}

	// A cone NAT would reuse the same port.
	r2 := newRig(1)
	q1 := r2.publicHost("q1")
	q2 := r2.publicHost("q2")
	realm2, _ := r2.natRealm("cone", Config{Type: PortRestricted}, r2.net.Root(), "10.0.0.1")
	inside2 := r2.net.AddHost("inside2", r2.site, realm2, phys.HostConfig{})
	var f1, f2 phys.Endpoint
	t1, _ := q1.Listen(700)
	t1.OnRecv = func(p *phys.Packet) { f1 = p.Src }
	t2, _ := q2.Listen(700)
	t2.OnRecv = func(p *phys.Packet) { f2 = p.Src }
	is2, _ := inside2.Listen(100)
	is2.Send(phys.Endpoint{IP: q1.IP(), Port: 700}, 10, nil)
	is2.Send(phys.Endpoint{IP: q2.IP(), Port: 700}, 10, nil)
	r2.s.Run()
	if f1 != f2 {
		t.Fatalf("cone NAT used different mappings per destination: %v vs %v", f1, f2)
	}
}

// UDP hole punching: two clients behind different port-restricted NATs can
// talk once both have sent toward each other's public endpoints.
func TestHolePunching(t *testing.T) {
	r := newRig(1)
	rendezvous := r.publicHost("rendezvous")
	realmA, _ := r.natRealm("natA", Config{Type: PortRestricted}, r.net.Root(), "10.0.0.1")
	realmB, _ := r.natRealm("natB", Config{Type: PortRestricted}, r.net.Root(), "10.1.0.1")
	a := r.net.AddHost("a", r.site, realmA, phys.HostConfig{})
	b := r.net.AddHost("b", r.site, realmB, phys.HostConfig{})

	// Both register with the rendezvous, which learns public endpoints.
	var pubA, pubB phys.Endpoint
	rs, _ := rendezvous.Listen(3478)
	rs.OnRecv = func(p *phys.Packet) {
		if p.Payload == "a" {
			pubA = p.Src
		} else {
			pubB = p.Src
		}
	}
	as, _ := a.Listen(100)
	bs, _ := b.Listen(100)
	aGot, bGot := 0, 0
	as.OnRecv = func(p *phys.Packet) { aGot++ }
	bs.OnRecv = func(p *phys.Packet) { bGot++ }
	as.Send(phys.Endpoint{IP: rendezvous.IP(), Port: 3478}, 10, "a")
	bs.Send(phys.Endpoint{IP: rendezvous.IP(), Port: 3478}, 10, "b")
	r.s.Run()
	if pubA.IsZero() || pubB.IsZero() {
		t.Fatal("registration failed")
	}

	// Simultaneous-open: each sends to the other's public endpoint. The
	// first packets may be filtered (no outbound state yet on the remote
	// NAT); the retries punch through.
	for i := 0; i < 3; i++ {
		as.Send(pubB, 10, "punch")
		bs.Send(pubA, 10, "punch")
		r.s.RunFor(100 * sim.Millisecond)
	}
	if aGot == 0 || bGot == 0 {
		t.Fatalf("hole punching failed: aGot=%d bGot=%d", aGot, bGot)
	}
}

// Hole punching fails when one side is symmetric and the other
// port-restricted: the symmetric NAT allocates a new port for the punch
// flow that the other side can't predict.
func TestSymmetricDefeatsHolePunch(t *testing.T) {
	r := newRig(1)
	rendezvous := r.publicHost("rendezvous")
	realmA, _ := r.natRealm("natA", Config{Type: Symmetric}, r.net.Root(), "10.0.0.1")
	realmB, _ := r.natRealm("natB", Config{Type: PortRestricted}, r.net.Root(), "10.1.0.1")
	a := r.net.AddHost("a", r.site, realmA, phys.HostConfig{})
	b := r.net.AddHost("b", r.site, realmB, phys.HostConfig{})

	var pubA, pubB phys.Endpoint
	rs, _ := rendezvous.Listen(3478)
	rs.OnRecv = func(p *phys.Packet) {
		if p.Payload == "a" {
			pubA = p.Src
		} else {
			pubB = p.Src
		}
	}
	as, _ := a.Listen(100)
	bs, _ := b.Listen(100)
	aGot, bGot := 0, 0
	as.OnRecv = func(p *phys.Packet) { aGot++ }
	bs.OnRecv = func(p *phys.Packet) { bGot++ }
	as.Send(phys.Endpoint{IP: rendezvous.IP(), Port: 3478}, 10, "a")
	bs.Send(phys.Endpoint{IP: rendezvous.IP(), Port: 3478}, 10, "b")
	r.s.Run()

	for i := 0; i < 5; i++ {
		as.Send(pubB, 10, "punch")
		bs.Send(pubA, 10, "punch")
		r.s.RunFor(100 * sim.Millisecond)
	}
	// B's packets target A's rendezvous mapping, but A's packets to B
	// use a *different* symmetric mapping, so B's NAT filter admits
	// nothing... and A's NAT filters B (wrong source for the
	// rendezvous-derived mapping? B is an unknown peer on that mapping).
	if aGot != 0 || bGot != 0 {
		t.Fatalf("symmetric NAT should defeat the punch: aGot=%d bGot=%d", aGot, bGot)
	}
}

// Hairpin translation: two hosts behind the same NAT exchanging packets via
// the NAT's public endpoint works only when hairpin is enabled. This is the
// exact mechanism behind the paper's slow UFL-UFL shortcut setup (Fig. 4).
func TestHairpin(t *testing.T) {
	for _, hairpin := range []bool{true, false} {
		r := newRig(1)
		server := r.publicHost("server")
		realm, nat := r.natRealm("nat", Config{Type: PortRestricted, Hairpin: hairpin}, r.net.Root(), "10.0.0.1")
		a := r.net.AddHost("a", r.site, realm, phys.HostConfig{})
		b := r.net.AddHost("b", r.site, realm, phys.HostConfig{})

		// Both open mappings via the public server.
		var pubB phys.Endpoint
		ss, _ := server.Listen(3478)
		ss.OnRecv = func(p *phys.Packet) {
			if p.Payload == "b" {
				pubB = p.Src
			}
		}
		as, _ := a.Listen(100)
		bs, _ := b.Listen(100)
		bGot := 0
		bs.OnRecv = func(p *phys.Packet) { bGot++ }
		as.Send(phys.Endpoint{IP: server.IP(), Port: 3478}, 10, "a")
		bs.Send(phys.Endpoint{IP: server.IP(), Port: 3478}, 10, "b")
		r.s.Run()

		// B must also "punch" toward A's... for simplicity both send to
		// each other's public endpoint (hairpin simultaneous open).
		for i := 0; i < 3; i++ {
			as.Send(pubB, 10, "hairpin")
			bs.Send(pubB, 10, "keepalive-self") // keeps B's mapping warm
			r.s.RunFor(50 * sim.Millisecond)
		}
		if hairpin && bGot == 0 {
			t.Error("hairpin NAT dropped hairpin traffic")
		}
		if !hairpin {
			if bGot != 0 {
				t.Error("no-hairpin NAT delivered hairpin traffic")
			}
			if nat.drops[dropHairpin] == 0 {
				t.Errorf("hairpin drops not counted: %v", nat.drops)
			}
		}
	}
}

// Two hosts behind the same NAT can always talk via private addresses.
func TestSameRealmPrivateTraffic(t *testing.T) {
	r := newRig(1)
	realm, _ := r.natRealm("nat", Config{Type: PortRestricted}, r.net.Root(), "10.0.0.1")
	a := r.net.AddHost("a", r.site, realm, phys.HostConfig{})
	b := r.net.AddHost("b", r.site, realm, phys.HostConfig{})
	_, n := echo(b, 100)
	as, _ := a.Listen(0)
	got := 0
	as.OnRecv = func(p *phys.Packet) { got++ }
	as.Send(phys.Endpoint{IP: b.IP(), Port: 100}, 10, nil)
	r.s.Run()
	if *n != 1 || got != 1 {
		t.Fatalf("private exchange failed: n=%d got=%d", *n, got)
	}
}

// Nested NATs (the paper's node034: VMware NAT inside wireless router
// inside ISP NAT): outbound traffic traverses all levels and replies come
// back through the chain.
func TestNestedNATs(t *testing.T) {
	r := newRig(1)
	server := r.publicHost("server")
	isp, _ := r.natRealm("isp", Config{Type: PortRestricted}, r.net.Root(), "100.64.0.1")
	wifi, _ := r.natRealm("wifi", Config{Type: PortRestricted}, isp, "192.168.1.1")
	vmware, _ := r.natRealm("vmware", Config{Type: PortRestricted, Hairpin: true}, wifi, "172.20.0.1")
	vm := r.net.AddHost("node034", r.site, vmware, phys.HostConfig{})

	ssock, _ := server.Listen(500)
	var observed phys.Endpoint
	ssock.OnRecv = func(p *phys.Packet) {
		observed = p.Src
		ssock.Send(p.Src, 10, "reply")
	}
	vs, _ := vm.Listen(0)
	got := 0
	vs.OnRecv = func(p *phys.Packet) { got++ }
	vs.Send(phys.Endpoint{IP: server.IP(), Port: 500}, 10, "hi")
	r.s.Run()

	if got != 1 {
		t.Fatal("reply failed to traverse 3 nested NATs")
	}
	// The server must see the outermost (ISP) NAT's address space.
	if observed.IP.String()[:4] != "128." {
		t.Fatalf("server observed %v, want outermost public IP", observed)
	}
}

// Expired mappings are rejected inbound and re-created fresh outbound with
// a new public port (the "NAT IP/port translation changes" of §V-E).
func TestMappingExpiry(t *testing.T) {
	r := newRig(1)
	peer := r.publicHost("peer")
	realm, nat := r.natRealm("nat", Config{Type: PortRestricted}, r.net.Root(), "10.0.0.1")
	inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})

	var pubs []phys.Endpoint
	ps, _ := peer.Listen(600)
	ps.OnRecv = func(p *phys.Packet) { pubs = append(pubs, p.Src) }
	is, _ := inside.Listen(100)
	rcvd := 0
	is.OnRecv = func(p *phys.Packet) { rcvd++ }

	is.Send(phys.Endpoint{IP: peer.IP(), Port: 600}, 10, nil)
	r.s.Run()
	// Let the mapping expire, then have the peer try the old endpoint.
	r.s.RunUntil(r.s.Now().Add(2 * mappingTTL))
	ps.Send(pubs[0], 10, nil)
	r.s.Run()
	if rcvd != 0 {
		t.Fatal("expired mapping admitted inbound")
	}
	if nat.drops[dropNoMapping] == 0 {
		t.Fatalf("drops = %v", nat.drops)
	}
	if nat.Mappings() != 0 {
		t.Fatalf("live mappings = %d, want 0", nat.Mappings())
	}

	// New outbound flow gets a new public port.
	is.Send(phys.Endpoint{IP: peer.IP(), Port: 600}, 10, nil)
	r.s.Run()
	if len(pubs) != 2 {
		t.Fatalf("peer observations = %d", len(pubs))
	}
	if pubs[0] == pubs[1] {
		t.Fatal("expired mapping's public port reused immediately")
	}
}

// Keepalives sent below the idle-expiry interval hold a mapping open
// indefinitely: after many TTL multiples of sub-TTL traffic the peer can
// still reach the inside host through the original public endpoint. This
// is the contract overlay keepalive pings depend on (PingInterval must sit
// under the deployment's NAT timeout).
func TestKeepaliveSustainsMapping(t *testing.T) {
	r := newRig(1)
	peer := r.publicHost("peer")
	ttl := mappingTTL
	realm, nat := r.natRealm("nat", Config{Type: PortRestricted}, r.net.Root(), "10.0.0.1")
	inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})

	var pubs []phys.Endpoint
	ps, _ := peer.Listen(600)
	ps.OnRecv = func(p *phys.Packet) { pubs = append(pubs, p.Src) }
	is, _ := inside.Listen(100)
	rcvd := 0
	is.OnRecv = func(p *phys.Packet) { rcvd++ }

	// Keepalive at TTL/2 for 10×TTL of virtual time.
	for i := 0; i < 20; i++ {
		is.Send(phys.Endpoint{IP: peer.IP(), Port: 600}, 10, nil)
		r.s.RunUntil(r.s.Now().Add(ttl / 2))
	}
	if len(pubs) != 20 {
		t.Fatalf("keepalives delivered = %d, want 20", len(pubs))
	}
	for _, p := range pubs[1:] {
		if p != pubs[0] {
			t.Fatalf("mapping churned under keepalive: %v vs %v", p, pubs[0])
		}
	}
	if nat.Mappings() != 1 {
		t.Fatalf("live mappings = %d, want 1", nat.Mappings())
	}
	// The peer can still reach inside through the original endpoint.
	ps.Send(pubs[0], 10, nil)
	r.s.Run()
	if rcvd != 1 {
		t.Fatal("sustained mapping rejected inbound")
	}
}

// SetType relaxes the discipline in place: flows created while the NAT was
// symmetric used per-destination ports, and after relaxing to full-cone a
// brand-new outbound flow gets one stable mapping a third party can use.
func TestSetTypeRelaxesFiltering(t *testing.T) {
	r := newRig(1)
	p1 := r.publicHost("p1")
	p2 := r.publicHost("p2")
	third := r.publicHost("third")
	realm, nat := r.natRealm("nat", Config{Type: Symmetric}, r.net.Root(), "10.0.0.1")
	inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})

	var e1, e2 phys.Endpoint
	s1, _ := p1.Listen(700)
	s1.OnRecv = func(p *phys.Packet) { e1 = p.Src }
	s2, _ := p2.Listen(700)
	s2.OnRecv = func(p *phys.Packet) { e2 = p.Src }
	isock, _ := inside.Listen(100)
	rcvd := 0
	isock.OnRecv = func(p *phys.Packet) { rcvd++ }
	isock.Send(phys.Endpoint{IP: p1.IP(), Port: 700}, 10, nil)
	isock.Send(phys.Endpoint{IP: p2.IP(), Port: 700}, 10, nil)
	r.s.Run()
	if e1.Port == e2.Port {
		t.Fatal("symmetric phase reused the public port")
	}

	// Relax to full-cone: a fresh flow from a new inner port maps once,
	// and an unrelated third party can send through it.
	nat.SetType(FullCone)
	if nat.cfg.Type != FullCone {
		t.Fatal("SetType did not take")
	}
	var e3 phys.Endpoint
	s1.OnRecv = func(p *phys.Packet) { e3 = p.Src }
	is2, _ := inside.Listen(101)
	got := 0
	is2.OnRecv = func(p *phys.Packet) { got++ }
	is2.Send(phys.Endpoint{IP: p1.IP(), Port: 700}, 10, nil)
	r.s.Run()
	if e3.IsZero() {
		t.Fatal("post-relax flow not delivered")
	}
	tsock, _ := third.Listen(0)
	tsock.Send(e3, 10, nil)
	r.s.Run()
	if got != 1 {
		t.Fatal("full-cone mapping filtered a third party after SetType")
	}
}

func TestFirewallPinholes(t *testing.T) {
	r := newRig(1)
	outsider := r.publicHost("outsider")
	fw := NewFirewall("sitefw", 0, r.s.Now)
	realm := r.net.AddRealm("campus", r.net.Root(), fw, phys.MustParseIP("128.227.0.1"))
	inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})

	isock, _ := inside.Listen(100)
	rcvd := 0
	isock.OnRecv = func(p *phys.Packet) { rcvd++ }
	osock, _ := outsider.Listen(900)
	orecv := 0
	osock.OnRecv = func(p *phys.Packet) { orecv++ }

	// Unsolicited inbound: dropped.
	osock.Send(phys.Endpoint{IP: inside.IP(), Port: 100}, 10, nil)
	r.s.Run()
	if rcvd != 0 || fw.drops[dropUnsolicited] != 1 {
		t.Fatalf("unsolicited admitted: rcvd=%d drops=%v", rcvd, fw.drops)
	}

	// Outbound opens a pinhole; the reply is admitted. Addresses are
	// not translated by a firewall.
	isock.Send(phys.Endpoint{IP: outsider.IP(), Port: 900}, 10, nil)
	r.s.Run()
	if orecv != 1 {
		t.Fatal("outbound blocked")
	}
	osock.Send(phys.Endpoint{IP: inside.IP(), Port: 100}, 10, nil)
	r.s.Run()
	if rcvd != 1 {
		t.Fatal("reply through pinhole blocked")
	}
}

func TestFirewallStaticAllowPort(t *testing.T) {
	r := newRig(1)
	outsider := r.publicHost("outsider")
	// ncgrid.org style: one UDP port statically open.
	fw := NewFirewall("ncgrid", 0, r.s.Now, 40000)
	realm := r.net.AddRealm("ncgrid", r.net.Root(), fw, phys.MustParseIP("152.0.0.1"))
	inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})
	_, n := echo(inside, 40000)
	osock, _ := outsider.Listen(0)
	got := 0
	osock.OnRecv = func(p *phys.Packet) { got++ }
	osock.Send(phys.Endpoint{IP: inside.IP(), Port: 40000}, 10, nil)
	r.s.Run()
	if *n != 1 || got != 1 {
		t.Fatalf("static allow port failed: n=%d got=%d", *n, got)
	}
	if fw.name != "ncgrid" {
		t.Fatal("Name")
	}
}

func TestFirewallPinholeExpiry(t *testing.T) {
	r := newRig(1)
	outsider := r.publicHost("outsider")
	fw := NewFirewall("fw", 10*sim.Second, r.s.Now)
	realm := r.net.AddRealm("campus", r.net.Root(), fw, phys.MustParseIP("128.227.0.1"))
	inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})
	isock, _ := inside.Listen(100)
	rcvd := 0
	isock.OnRecv = func(p *phys.Packet) { rcvd++ }
	osock, _ := outsider.Listen(900)

	isock.Send(phys.Endpoint{IP: outsider.IP(), Port: 900}, 10, nil)
	r.s.Run()
	r.s.RunUntil(r.s.Now().Add(30 * sim.Second))
	osock.Send(phys.Endpoint{IP: inside.IP(), Port: 100}, 10, nil)
	r.s.Run()
	if rcvd != 0 {
		t.Fatal("expired pinhole admitted inbound")
	}
}

// Property: for a cone NAT, outbound translation is stable (same inner
// endpoint always maps to the same public port while unexpired) and
// inbound inverts it exactly.
func TestQuickNATInverse(t *testing.T) {
	f := func(ports []uint16, typRaw uint8) bool {
		if len(ports) == 0 || len(ports) > 30 {
			return true
		}
		typ := NATType(typRaw % 3) // cone variants
		r := newRig(9)
		peer := r.publicHost("peer")
		realm, nat := r.natRealm("nat", Config{Type: typ}, r.net.Root(), "10.0.0.1")
		inside := r.net.AddHost("inside", r.site, realm, phys.HostConfig{})
		sock, err := peer.Listen(600)
		if err != nil {
			return false
		}
		observed := map[uint16]phys.Endpoint{} // inner port -> public EP
		sock.OnRecv = func(p *phys.Packet) {
			srcPort := p.Payload.(uint16)
			if prev, ok := observed[srcPort]; ok && prev != p.Src {
				t.Errorf("mapping for inner port %d changed: %v -> %v", srcPort, prev, p.Src)
			}
			observed[srcPort] = p.Src
			sock.Send(p.Src, 10, srcPort) // echo back through the mapping
		}
		echoed := map[uint16]bool{}
		for _, port := range ports {
			port := port%1000 + 1000
			is, err := inside.Listen(port)
			if err != nil {
				continue // duplicate port in the random input
			}
			is.OnRecv = func(p *phys.Packet) { echoed[p.Dst.Port] = true }
			is.Send(phys.Endpoint{IP: peer.IP(), Port: 600}, 10, port)
			is.Send(phys.Endpoint{IP: peer.IP(), Port: 600}, 10, port)
		}
		r.s.Run()
		// Every bound inner port must have received its echo (inbound
		// translation inverted the mapping).
		for port := range observed {
			if !echoed[port] {
				return false
			}
		}
		_ = nat
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}
