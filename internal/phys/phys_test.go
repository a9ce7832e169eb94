package phys

import (
	"testing"

	"wow/internal/sim"
)

func lanWan() LatencyFunc {
	return UniformLatency(
		PathModel{OneWay: sim.Millisecond},
		PathModel{OneWay: 20 * sim.Millisecond},
	)
}

// stat reads one of the network's delivery counters, merged over its shards.
func stat(n *Network, name string) int64 {
	total := n.TotalStats()
	return total.Get(name)
}

func statsString(n *Network) string {
	total := n.TotalStats()
	return total.String()
}

func TestParseIP(t *testing.T) {
	ip, err := ParseIP("10.1.2.3")
	if err != nil {
		t.Fatal(err)
	}
	if ip.String() != "10.1.2.3" {
		t.Fatalf("roundtrip = %s", ip)
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "a.b.c.d", "256.0.0.1", "-1.0.0.1"} {
		if _, err := ParseIP(bad); err == nil {
			t.Errorf("ParseIP(%q) accepted", bad)
		}
	}
}

func TestMustParseIPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParseIP("not-an-ip")
}

func TestEndpointString(t *testing.T) {
	e := Endpoint{IP: MustParseIP("1.2.3.4"), Port: 80}
	if e.String() != "1.2.3.4:80" {
		t.Fatalf("got %s", e)
	}
	if e.IsZero() {
		t.Fatal("non-zero endpoint reported zero")
	}
	if !(Endpoint{}).IsZero() {
		t.Fatal("zero endpoint not reported zero")
	}
}

func TestPublicDelivery(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})

	sock2, err := h2.Listen(5000)
	if err != nil {
		t.Fatal(err)
	}
	// Packets are pooled and recycled after OnRecv returns: copy, don't
	// retain the pointer.
	var got Packet
	var delivered bool
	var at sim.Time
	sock2.OnRecv = func(p *Packet) { got, delivered, at = *p, true, s.Now() }

	sock1, _ := h1.Listen(0)
	sock1.Send(Endpoint{IP: h2.IP(), Port: 5000}, 100, "hello")
	s.Run()

	if !delivered {
		t.Fatal("packet not delivered")
	}
	if got.Payload != "hello" {
		t.Fatalf("payload = %v", got.Payload)
	}
	if got.Src != sock1.LocalEndpoint() {
		t.Fatalf("src = %v, want %v", got.Src, sock1.LocalEndpoint())
	}
	if at != sim.Time(sim.Millisecond) {
		t.Fatalf("arrival at %v, want 1ms LAN latency", at)
	}
}

func TestWANLatency(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	sa, sb := net.AddSite("a"), net.AddSite("b")
	h1 := net.AddHost("h1", sa, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", sb, net.Root(), HostConfig{})
	sock2, _ := h2.Listen(1)
	var at sim.Time
	sock2.OnRecv = func(p *Packet) { at = s.Now() }
	sock1, _ := h1.Listen(0)
	sock1.Send(Endpoint{IP: h2.IP(), Port: 1}, 100, nil)
	s.Run()
	if at != sim.Time(20*sim.Millisecond) {
		t.Fatalf("WAN arrival %v, want 20ms", at)
	}
}

func TestReplyToObservedSource(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	s1, _ := h1.Listen(0)
	s2, _ := h2.Listen(7)
	gotReply := false
	s1.OnRecv = func(p *Packet) { gotReply = true }
	s2.OnRecv = func(p *Packet) { s2.Send(p.Src, 50, "pong") }
	s1.Send(Endpoint{IP: h2.IP(), Port: 7}, 50, "ping")
	s.Run()
	if !gotReply {
		t.Fatal("reply never arrived")
	}
}

// A delivery reaches the receiver SetReceiver installed and not the
// socket's OnRecv. Once the socket is closed, SetReceiver on it does
// nothing: a socket bound again on the port is its own receiver.
func TestSetReceiver(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	from, _ := h1.Listen(0)
	to := Endpoint{IP: h2.IP(), Port: 7}

	sock, _ := h2.Listen(7)
	onRecv := 0
	sock.OnRecv = func(*Packet) { onRecv++ }
	rx := &tally{}
	sock.SetReceiver(rx)
	from.Send(to, 10, nil)
	s.Run()
	if rx.n != 1 || onRecv != 0 {
		t.Fatalf("installed receiver heard %d datagrams and OnRecv %d; want 1 and 0", rx.n, onRecv)
	}

	sock.Close()
	again, _ := h2.Listen(7)
	againRecv := 0
	again.OnRecv = func(*Packet) { againRecv++ }
	sock.SetReceiver(rx)
	from.Send(to, 10, nil)
	s.Run()
	if rx.n != 1 || againRecv != 1 || onRecv != 0 {
		t.Fatalf("after a rebind, the closed socket's receiver heard %d datagrams, the new socket's OnRecv %d; want 1 and 1",
			rx.n, againRecv)
	}
}

func TestUnroutableCounted(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	s1, _ := h1.Listen(0)
	s1.Send(Endpoint{IP: MustParseIP("9.9.9.9"), Port: 1}, 10, nil)
	s.Run()
	if stat(net, "lost.noroute") != 1 {
		t.Fatalf("stats = %v", statsString(net))
	}
}

func TestClosedPortCounted(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	s1, _ := h1.Listen(0)
	s1.Send(Endpoint{IP: h2.IP(), Port: 99}, 10, nil)
	s.Run()
	if stat(net, "lost.noport") != 1 {
		t.Fatalf("stats = %v", statsString(net))
	}
}

func TestHostDownDropsAndRecovers(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	sock2, _ := h2.Listen(1)
	n := 0
	sock2.OnRecv = func(p *Packet) { n++ }
	s1, _ := h1.Listen(0)

	h2.SetUp(false)
	if h2.up {
		t.Fatal("SetUp(false) ignored")
	}
	s1.Send(Endpoint{IP: h2.IP(), Port: 1}, 10, nil)
	s.Run()
	if n != 0 || stat(net, "lost.hostdown") != 1 {
		t.Fatalf("down host received packet; stats=%v", statsString(net))
	}

	h2.SetUp(true)
	s1.Send(Endpoint{IP: h2.IP(), Port: 1}, 10, nil)
	s.Run()
	if n != 1 {
		t.Fatal("recovered host did not receive")
	}
}

func TestDownSenderSendsNothing(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	sock2, _ := h2.Listen(1)
	n := 0
	sock2.OnRecv = func(p *Packet) { n++ }
	s1, _ := h1.Listen(0)
	h1.SetUp(false)
	s1.Send(Endpoint{IP: h2.IP(), Port: 1}, 10, nil)
	s.Run()
	if n != 0 {
		t.Fatal("down host sent a packet")
	}
}

func TestPortBinding(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h := net.AddHost("h", site, net.Root(), HostConfig{})
	if _, err := h.Listen(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Listen(1000); err == nil {
		t.Fatal("double bind allowed")
	}
	a, _ := h.Listen(0)
	b, _ := h.Listen(0)
	if a.Port() == b.Port() {
		t.Fatal("ephemeral ports collided")
	}
	a.Close()
	a.Close() // idempotent
	if _, err := h.Listen(a.Port()); err != nil {
		t.Fatal("closed port not reusable")
	}
}

func TestClosedSocketDropsInFlight(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	sock2, _ := h2.Listen(1)
	n := 0
	sock2.OnRecv = func(p *Packet) { n++ }
	s1, _ := h1.Listen(0)
	s1.Send(Endpoint{IP: h2.IP(), Port: 1}, 10, nil)
	sock2.Close()
	s.Run()
	if n != 0 {
		t.Fatal("closed socket received in-flight packet")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	// 1 MB/s uplink: a 100 KB packet takes 100 ms to transmit.
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{Bandwidth: 1e6})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	sock2, _ := h2.Listen(1)
	var arrivals []sim.Time
	sock2.OnRecv = func(p *Packet) { arrivals = append(arrivals, s.Now()) }
	s1, _ := h1.Listen(0)
	s1.Send(Endpoint{IP: h2.IP(), Port: 1}, 100_000, nil)
	s1.Send(Endpoint{IP: h2.IP(), Port: 1}, 100_000, nil)
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	want0 := sim.Time(101 * sim.Millisecond) // 100ms tx + 1ms prop
	want1 := sim.Time(201 * sim.Millisecond) // serialized behind first
	if arrivals[0] != want0 || arrivals[1] != want1 {
		t.Fatalf("arrivals = %v, want [%v %v]", arrivals, want0, want1)
	}
}

func TestServiceTimeAndOverload(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	// 10ms per packet, loaded 2x => 20ms; queue capped at 50ms backlog.
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{
		ServiceTime: 10 * sim.Millisecond,
		LoadFactor:  2,
		QueueLimit:  50 * sim.Millisecond,
	})
	sock2, _ := h2.Listen(1)
	n := 0
	sock2.OnRecv = func(p *Packet) { n++ }
	s1, _ := h1.Listen(0)
	for i := 0; i < 10; i++ {
		s1.Send(Endpoint{IP: h2.IP(), Port: 1}, 10, nil)
	}
	s.Run()
	// All arrive at t=1ms; backlog grows 20ms per accepted packet; with a
	// 50ms cap, packets 1-3 are accepted (backlog 0,20,40) and packet 4+
	// sees backlog 60 > 50.
	if n != 3 {
		t.Fatalf("processed %d packets, want 3 (rest overload-dropped)", n)
	}
	if stat(net, "lost.overload") != 7 {
		t.Fatalf("stats = %v", statsString(net))
	}
}

func TestWireLoss(t *testing.T) {
	s := sim.New(7)
	lossy := func(a, b *Site) PathModel {
		return PathModel{OneWay: sim.Millisecond, Loss: 0.5}
	}
	net := NewNetwork(s, lossy)
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	sock2, _ := h2.Listen(1)
	n := 0
	sock2.OnRecv = func(p *Packet) { n++ }
	s1, _ := h1.Listen(0)
	for i := 0; i < 1000; i++ {
		s1.Send(Endpoint{IP: h2.IP(), Port: 1}, 10, nil)
	}
	s.Run()
	if n < 400 || n > 600 {
		t.Fatalf("with 50%% loss, delivered %d of 1000", n)
	}
	if stat(net, "lost.wire")+int64(n) != 1000 {
		t.Fatalf("loss accounting: delivered=%d stats=%v", n, statsString(net))
	}
}

func TestJitterBounds(t *testing.T) {
	s := sim.New(3)
	jittery := func(a, b *Site) PathModel {
		return PathModel{OneWay: 20 * sim.Millisecond, Jitter: 5 * sim.Millisecond}
	}
	net := NewNetwork(s, jittery)
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	sock2, _ := h2.Listen(1)
	var prev sim.Time
	sock2.OnRecv = func(p *Packet) {
		d := s.Now().Sub(prev)
		if d < 15*sim.Millisecond || d > 25*sim.Millisecond {
			t.Fatalf("jittered latency %v outside [15ms,25ms]", d)
		}
	}
	s1, _ := h1.Listen(0)
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * sim.Time(sim.Second)
		prevAt := at
		s.At(at, func() {
			prev = prevAt
			s1.Send(Endpoint{IP: h2.IP(), Port: 1}, 10, nil)
		})
	}
	s.Run()
}

func TestRealmNextIPSkipsTaken(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	h1 := net.AddHost("h1", site, net.Root(), HostConfig{})
	h2 := net.AddHost("h2", site, net.Root(), HostConfig{})
	if h1.IP() == h2.IP() {
		t.Fatal("IP collision")
	}
	if got := hostCount(net.Root()); got != 2 {
		t.Fatalf("root hosts = %d", got)
	}
	if !net.Root().HasHost(h1.IP()) {
		t.Fatal("HasHost false for registered host")
	}
}

func TestNetworkString(t *testing.T) {
	s := sim.New(1)
	net := NewNetwork(s, lanWan())
	site := net.AddSite("a")
	net.AddHost("h", site, net.Root(), HostConfig{})
	if got := net.String(); got != "phys.Network{sites=1 hosts=1}" {
		t.Fatalf("String = %q", got)
	}
	if len(net.hosts) != 1 {
		t.Fatal("hosts wrong")
	}
}
