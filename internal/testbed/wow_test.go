package testbed

import (
	"fmt"
	"testing"

	"wow/internal/brunet"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vm"
)

func newNet(seed int64) (*sim.Simulator, *phys.Network) {
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(
		phys.PathModel{OneWay: 500 * sim.Microsecond},
		phys.PathModel{OneWay: 15 * sim.Millisecond},
	))
	return s, net
}

// buildWOW assembles a WOW of public routers and public workstations on a
// uniform-latency network and lets it settle.
func buildWOW(t *testing.T, seed int64, routers, stations int) (*WOW, *sim.Simulator, *phys.Network) {
	t.Helper()
	s, net := newNet(seed)
	w := NewWOW(Options{Shortcuts: true, Brunet: brunet.FastTestConfig()})
	for i := 0; i < routers; i++ {
		h := net.AddHost(fmt.Sprintf("r%d", i), net.AddSite(fmt.Sprintf("rs%d", i)), net.Root(), phys.HostConfig{})
		if _, err := w.AddRouter(h, fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
		s.RunFor(2 * sim.Second)
	}
	for i := 0; i < stations; i++ {
		h := net.AddHost(fmt.Sprintf("ws%d", i), net.AddSite(fmt.Sprintf("wss%d", i)), net.Root(), phys.HostConfig{})
		ip := vip.MustParseIP(fmt.Sprintf("172.16.1.%d", i+2))
		if _, err := w.AddWorkstation(h, ip, vm.Spec{Name: fmt.Sprintf("ws%d", i)}); err != nil {
			t.Fatal(err)
		}
		s.RunFor(2 * sim.Second)
	}
	s.RunFor(2 * sim.Minute)
	return w, s, net
}

func TestWorkstationBeforeRouterRejected(t *testing.T) {
	_, net := newNet(1)
	w := NewWOW(Options{})
	h := net.AddHost("h", net.AddSite("s"), net.Root(), phys.HostConfig{})
	if _, err := w.AddWorkstation(h, vip.MustParseIP("172.16.1.2"), vm.Spec{Name: "x"}); err == nil {
		t.Fatal("workstation accepted with no bootstrap overlay")
	}
}

func TestDuplicateVIPRejected(t *testing.T) {
	w, _, net := buildWOW(t, 2, 2, 1)
	h := net.AddHost("dup", net.AddSite("dup"), net.Root(), phys.HostConfig{})
	if _, err := w.AddWorkstation(h, w.Workstations()[0].IP(), vm.Spec{Name: "dup"}); err == nil {
		t.Fatal("duplicate virtual IP accepted")
	}
}

func TestSelfOrganizingCluster(t *testing.T) {
	w, s, _ := buildWOW(t, 3, 8, 4)
	if w.RoutableWorkstations() != 4 {
		t.Fatalf("routable = %d of 4", w.RoutableWorkstations())
	}
	if w.OverlaySize() != 12 {
		t.Fatalf("overlay size = %d", w.OverlaySize())
	}
	a := w.Workstations()[0]
	b := w.Workstations()[3]
	ok := false
	a.Stack().Ping(b.IP(), 64, 10*sim.Second, func(o bool, _ sim.Duration) { ok = o })
	s.RunFor(15 * sim.Second)
	if !ok {
		t.Fatal("virtual ping between workstations failed")
	}
	if len(w.Boot()) == 0 || len(w.Routers()) != 8 {
		t.Fatal("boot/routers accessors")
	}
}

func TestMigratedWorkstationRoutable(t *testing.T) {
	w, s, net := buildWOW(t, 5, 8, 2)
	v := w.Workstations()[0]
	dst := net.AddHost("dst", net.AddSite("dst"), net.Root(), phys.HostConfig{})
	migrated := false
	if err := v.Migrate(dst, vm.MigrationConfig{TransferBps: 64 << 20}, func() { migrated = true }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Minute)
	if !migrated || v.Host() != dst {
		t.Fatal("migration failed")
	}
	if !v.Node().Overlay().IsRoutable() {
		t.Fatal("migrated workstation not routable")
	}
}
