package ipop

import (
	"fmt"
	"math/rand"
	"testing"

	"wow/internal/brunet"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/vip"
)

// rig: a public router ring plus helpers to attach compute nodes.
type rig struct {
	s       *sim.Simulator
	net     *phys.Network
	site    *phys.Site
	routers []*Node
	boot    []brunet.URI
}

func newRig(t *testing.T, seed int64, routers int) *rig {
	t.Helper()
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 15 * sim.Millisecond},
	))
	r := &rig{s: s, net: net, site: net.AddSite("net")}
	cfg := brunet.FastTestConfig()
	for i := 0; i < routers; i++ {
		// Each router at its own site: inter-node paths are WAN paths.
		h := net.AddHost(fmt.Sprintf("router%02d", i), net.AddSite(fmt.Sprintf("site%02d", i)), net.Root(), phys.HostConfig{})
		rt := NewRouter(h, brunet.AddrFromString(fmt.Sprintf("router%02d", i)), cfg)
		if err := rt.Start(r.boot); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			r.boot = BootURIs(rt)
		}
		r.routers = append(r.routers, rt)
		s.RunFor(2 * sim.Second)
	}
	s.RunFor(30 * sim.Second)
	return r
}

func (r *rig) addCompute(t *testing.T, name, ip string) (*Node, *vip.Stack) {
	return r.addComputeCfg(t, name, ip, brunet.FastTestConfig())
}

func (r *rig) addComputeCfg(t *testing.T, name, ip string, cfg brunet.Config) (*Node, *vip.Stack) {
	t.Helper()
	h := r.net.AddHost(name, r.net.AddSite(name+"-site"), r.net.Root(), phys.HostConfig{})
	n := New(h, vip.MustParseIP(ip), cfg)
	if err := n.Start(r.boot); err != nil {
		t.Fatal(err)
	}
	return n, vip.NewStack(n, vip.StackConfig{})
}

func TestAddrForVIPStableAndDistinct(t *testing.T) {
	a := AddrForVIP(vip.MustParseIP("172.16.1.2"))
	b := AddrForVIP(vip.MustParseIP("172.16.1.3"))
	if a == b {
		t.Fatal("distinct IPs map to same overlay address")
	}
	if a != AddrForVIP(vip.MustParseIP("172.16.1.2")) {
		t.Fatal("mapping not stable")
	}
}

func TestPingOverOverlay(t *testing.T) {
	r := newRig(t, 1, 8)
	_, sa := r.addCompute(t, "vmA", "172.16.1.2")
	nb, _ := r.addCompute(t, "vmB", "172.16.1.3")
	r.s.RunFor(30 * sim.Second)

	ok := false
	var rtt sim.Duration
	sa.Ping(nb.VIP(), 64, 10*sim.Second, func(o bool, d sim.Duration) { ok, rtt = o, d })
	r.s.RunFor(15 * sim.Second)
	if !ok {
		t.Fatalf("virtual ping failed (rtt=%v)", rtt)
	}
	if rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	r := newRig(t, 2, 4)
	n, _ := r.addCompute(t, "vmA", "172.16.1.2")
	if err := n.Start(r.boot); err == nil {
		t.Fatal("double start accepted")
	}
	if err := n.MoveToHost(r.routers[0].host); err == nil {
		t.Fatal("moved a running node")
	}
}

func TestShortcutFormsFromVirtualTraffic(t *testing.T) {
	r := newRig(t, 3, 32)
	// Keep the pair sparse (few far links) so they are not already
	// directly connected in this small ring.
	sparse := brunet.FastTestConfig()
	sparse.FarCount = 2
	na, sa := r.addComputeCfg(t, "vmA", "172.16.1.2", sparse)
	nb, _ := r.addComputeCfg(t, "vmB", "172.16.1.3", sparse)
	r.s.RunFor(30 * sim.Second)

	if c := na.Overlay().ConnectionTo(nb.Addr()); c != nil {
		t.Fatalf("precondition broken: pair already connected (%v); pick another seed/IPs", c)
	}
	tk := r.s.Tick(sim.Second, 0, func() {
		sa.Ping(nb.VIP(), 64, 5*sim.Second, func(bool, sim.Duration) {})
	})
	defer tk.Stop()
	r.s.RunFor(2 * sim.Minute)

	c := na.Overlay().ConnectionTo(nb.Addr())
	if c == nil || !c.Has(brunet.Shortcut) {
		t.Fatalf("no shortcut from sustained virtual IP traffic (conn=%v)", c)
	}
}

func TestShortcutLowersRTT(t *testing.T) {
	r := newRig(t, 3, 32)
	sparse := brunet.FastTestConfig()
	sparse.FarCount = 2
	na, sa := r.addComputeCfg(t, "vmA", "172.16.1.2", sparse)
	nb, _ := r.addComputeCfg(t, "vmB", "172.16.1.3", sparse)
	r.s.RunFor(30 * sim.Second)
	if c := na.Overlay().ConnectionTo(nb.Addr()); c != nil {
		t.Fatalf("precondition broken: pair already connected (%v)", c)
	}

	var rtts []sim.Duration
	tk := r.s.Tick(sim.Second, 0, func() {
		sa.Ping(nb.VIP(), 64, 5*sim.Second, func(ok bool, d sim.Duration) {
			if ok {
				rtts = append(rtts, d)
			}
		})
	})
	defer tk.Stop()
	r.s.RunFor(3 * sim.Minute)
	if len(rtts) < 100 {
		t.Fatalf("too few replies: %d", len(rtts))
	}
	early := rtts[2]
	late := rtts[len(rtts)-1]
	if late >= early {
		t.Fatalf("RTT did not drop after shortcut: early=%v late=%v", early, late)
	}
	// Shortcut path is one overlay hop: RTT ≈ 2 × 2 × one-way WAN.
	if late > 70*sim.Millisecond {
		t.Fatalf("late RTT %v too high for a direct path", late)
	}
}

func TestTCPOverOverlay(t *testing.T) {
	r := newRig(t, 5, 8)
	_, sa := r.addCompute(t, "vmA", "172.16.1.2")
	nb, sb := r.addCompute(t, "vmB", "172.16.1.3")
	r.s.RunFor(30 * sim.Second)

	const total = 1 << 20
	rcvd := 0
	if err := sb.ListenTCP(22, func(c *vip.Conn) {
		c.OnMessage(func(size int, msg any) { rcvd += size })
	}); err != nil {
		t.Fatal(err)
	}
	c := sa.DialTCP(nb.VIP(), 22)
	for sent := 0; sent < total; sent += 16384 {
		c.Send(16384, nil)
	}
	r.s.RunFor(5 * sim.Minute)
	if rcvd != total {
		t.Fatalf("TCP over overlay incomplete: %d of %d", rcvd, total)
	}
}

func TestMigrationPreservesVirtualIdentity(t *testing.T) {
	r := newRig(t, 6, 10)
	na, sa := r.addCompute(t, "vmA", "172.16.1.2")
	nb, sb := r.addCompute(t, "vmB", "172.16.1.3")
	r.s.RunFor(30 * sim.Second)

	// Long-running transfer from B to A.
	const total = 4 << 20
	rcvd := 0
	sa.ListenTCP(22, func(c *vip.Conn) {
		c.OnMessage(func(size int, msg any) { rcvd += size })
	})
	c := sb.DialTCP(na.VIP(), 22)
	for sent := 0; sent < total; sent += 16384 {
		c.Send(16384, nil)
	}
	r.s.RunFor(2 * sim.Second)
	before := rcvd
	if before == 0 || before == total {
		t.Fatalf("migration window mistimed: %d", before)
	}

	// Migrate B: kill IPOP, move host, restart, rejoin.
	addrBefore := nb.Addr()
	nb.Stop()
	if nb.Up() {
		t.Fatal("Up after Stop")
	}
	newHost := r.net.AddHost("vmB-migrated", r.site, r.net.Root(), phys.HostConfig{})
	if err := nb.MoveToHost(newHost); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(30 * sim.Second) // outage window
	if err := nb.Start(r.boot); err != nil {
		t.Fatal(err)
	}
	if nb.Addr() != addrBefore {
		t.Fatal("overlay address changed across migration")
	}
	r.s.RunFor(10 * sim.Minute)
	if rcvd != total {
		t.Fatalf("transfer did not resume after migration: %d of %d", rcvd, total)
	}
}

func TestRouterOnlyDropsLocalIP(t *testing.T) {
	r := newRig(t, 7, 4)
	rt := r.routers[0]
	rt.SendIP(&vip.Packet{Src: 1, Dst: 2, Proto: vip.ProtoICMP, Size: 64})
	if rt.Stats.Get("tunnel.dropped_down") != 1 {
		t.Fatal("router-only SendIP not rejected")
	}
	if rt.VIP() != 0 {
		t.Fatal("router-only node has a virtual IP")
	}
	if !rt.Up() {
		t.Fatal("router not up")
	}
}

func TestStoppedNodeDropsTraffic(t *testing.T) {
	r := newRig(t, 8, 4)
	na, sa := r.addCompute(t, "vmA", "172.16.1.2")
	na.Stop()
	sa.Ping(vip.MustParseIP("172.16.1.9"), 64, sim.Second, func(bool, sim.Duration) {})
	r.s.RunFor(5 * sim.Second)
	if na.Stats.Get("tunnel.dropped_down") == 0 {
		t.Fatal("stopped node tunnelled traffic")
	}
}

func TestMisroutedPacketCounted(t *testing.T) {
	// A packet for a dead virtual IP lands at the nearest neighbor's
	// IPOP node, which must drop and count it, not deliver it.
	r := newRig(t, 9, 6)
	_, sa := r.addCompute(t, "vmA", "172.16.1.2")
	nb, _ := r.addCompute(t, "vmB", "172.16.1.3")
	r.s.RunFor(30 * sim.Second)
	_ = nb

	sa.Ping(vip.MustParseIP("172.16.1.99"), 64, sim.Second, func(ok bool, _ sim.Duration) {
		if ok {
			t.Error("ping to nonexistent virtual IP succeeded")
		}
	})
	r.s.RunFor(10 * sim.Second)
}

// TestLoopbackTCP is a regression test for the PBS-head-mounts-its-own-NFS
// scenario: a stack dialing its own virtual IP must deliver asynchronously
// (never re-entering transport code synchronously) and reliably.
func TestLoopbackTCP(t *testing.T) {
	r := newRig(t, 10, 4)
	na, sa := r.addCompute(t, "vmA", "172.16.1.2")
	r.s.RunFor(20 * sim.Second)

	const total = 2 << 20
	rcvd := 0
	if err := sa.ListenTCP(2049, func(c *vip.Conn) {
		c.OnMessage(func(size int, msg any) { rcvd += size })
	}); err != nil {
		t.Fatal(err)
	}
	c := sa.DialTCP(na.VIP(), 2049) // own virtual IP
	for sent := 0; sent < total; sent += 32768 {
		c.Send(32768, nil)
	}
	r.s.RunFor(2 * sim.Minute)
	if rcvd != total {
		t.Fatalf("loopback delivered %d of %d", rcvd, total)
	}
	if na.Stats.Get("tunnel.in") == 0 {
		t.Fatal("loopback bypassed the tunnel accounting")
	}
}

// The per-node memo under SendIP answers exactly as AddrForVIP does, and a
// repeated destination costs a map read: no string, no hash, no allocation.
func TestAddrForMemoMatchesAddrForVIP(t *testing.T) {
	n := New(nil, vip.MustParseIP("172.16.1.2"), brunet.Config{})
	rng := rand.New(rand.NewSource(3))
	ips := make([]vip.IP, 1000)
	for i := range ips {
		ips[i] = vip.IP(rng.Uint32())
	}
	for pass := 0; pass < 2; pass++ { // second pass: every answer from the memo
		for _, ip := range ips {
			if got, want := n.addrFor(ip), AddrForVIP(ip); got != want {
				t.Fatalf("pass %d: addrFor(%s) = %s, AddrForVIP %s", pass, ip, got.FullString(), want.FullString())
			}
		}
	}
	if avg := testing.AllocsPerRun(100, func() { n.addrFor(ips[7]) }); avg != 0 {
		t.Errorf("memoized addrFor allocates %.1f times per call, want 0", avg)
	}
}
