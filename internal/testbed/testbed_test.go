package testbed

import (
	"testing"

	"wow/internal/brunet"
	"wow/internal/sim"
)

// fastCfg shrinks the testbed for unit tests; the benchmarks use the full
// 118-router configuration.
func fastCfg(seed int64, shortcuts bool) Config {
	return Config{
		Seed:           seed,
		Shortcuts:      shortcuts,
		PlanetLabHosts: 6,
		Routers:        24,
		Brunet:         brunet.FastTestConfig(),
		SettleTime:     3 * sim.Minute,
	}
}

func TestTableIShape(t *testing.T) {
	defs := TableI()
	if len(defs) != 33 {
		t.Fatalf("Table I rows = %d, want 33", len(defs))
	}
	bySite := map[string]int{}
	for _, d := range defs {
		bySite[d.Site]++
	}
	want := map[string]int{
		"ufl.edu": 15, "northwestern.edu": 13, "lsu.edu": 2,
		"ncgrid.org": 1, "vims.edu": 1, "gru.net": 1,
	}
	for site, n := range want {
		if bySite[site] != n {
			t.Errorf("%s: %d nodes, want %d", site, bySite[site], n)
		}
	}
	if defs[0].Name != "node002" || defs[0].Speed != 1.0 {
		t.Fatalf("node002 def wrong: %+v", defs[0])
	}
}

func TestBuildRoutersOnly(t *testing.T) {
	cfg := fastCfg(1, true)
	cfg.SkipVMs = true
	tb := Build(cfg)
	if len(tb.Routers()) != 24 || len(tb.Workstations()) != 0 {
		t.Fatalf("routers=%d vms=%d", len(tb.Routers()), len(tb.Workstations()))
	}
	routable := 0
	for _, r := range tb.Routers() {
		if r.Overlay().IsRoutable() {
			routable++
		}
	}
	if routable < 23 {
		t.Fatalf("only %d/24 routers routable", routable)
	}
}

func TestBuildFullTestbedAllRoutable(t *testing.T) {
	tb := Build(fastCfg(2, true))
	if len(tb.Workstations()) != 33 {
		t.Fatalf("VMs = %d", len(tb.Workstations()))
	}
	if got := tb.RoutableWorkstations(); got != 33 {
		for _, v := range tb.Workstations() {
			if !v.Node().Overlay().IsRoutable() {
				t.Logf("not routable: %s (conns=%d)", v.Name(), len(v.Node().Overlay().Connections()))
			}
		}
		t.Fatalf("routable VMs = %d of 33", got)
	}
	if head := tb.VM("node002"); head == nil || head.Name() != "node002" {
		t.Fatal("head lookup")
	}
	if tb.VM("node034") == nil {
		t.Fatal("node034 missing")
	}
}

func TestCrossDomainPing(t *testing.T) {
	tb := Build(fastCfg(3, true))
	cases := []struct{ from, to string }{
		{"node003", "node017"}, // UFL -> NWU
		{"node003", "node004"}, // UFL -> UFL
		{"node017", "node018"}, // NWU -> NWU
		{"node030", "node032"}, // LSU -> ncgrid (single open port)
		{"node033", "node034"}, // VIMS -> home triple NAT
	}
	for _, c := range cases {
		from, to := tb.VM(c.from), tb.VM(c.to)
		ok := false
		got := false
		from.Stack().Ping(to.IP(), 64, 20*sim.Second, func(o bool, _ sim.Duration) { ok, got = o, true })
		tb.Sim.RunFor(25 * sim.Second)
		if !got || !ok {
			t.Errorf("ping %s -> %s failed", c.from, c.to)
		}
	}
}

func TestShortcutsToggle(t *testing.T) {
	tbOff := Build(fastCfg(4, false))
	for _, v := range tbOff.Workstations()[:3] {
		if v.Node().Overlay().Config().Shortcut != nil {
			t.Fatal("shortcuts enabled despite Shortcuts=false")
		}
	}
	tbOn := Build(fastCfg(4, true))
	if tbOn.Workstations()[0].Node().Overlay().Config().Shortcut == nil {
		t.Fatal("shortcuts disabled despite Shortcuts=true")
	}
}

func TestUFLNWUDirectRTTCalibration(t *testing.T) {
	tb := Build(fastCfg(5, true))
	a, b := tb.VM("node003"), tb.VM("node017")
	// Drive traffic until a shortcut forms, then measure.
	var rtts []sim.Duration
	tk := tb.Sim.Tick(sim.Second, 0, func() {
		a.Stack().Ping(b.IP(), 64, 5*sim.Second, func(ok bool, d sim.Duration) {
			if ok {
				rtts = append(rtts, d)
			}
		})
	})
	defer tk.Stop()
	tb.Sim.RunFor(5 * sim.Minute)
	if len(rtts) < 50 {
		t.Fatalf("too few replies: %d", len(rtts))
	}
	last := rtts[len(rtts)-1]
	// Paper: ~38 ms direct UFL-NWU RTT.
	if last < 30*sim.Millisecond || last > 55*sim.Millisecond {
		t.Fatalf("direct UFL-NWU RTT = %v, want ~38-45ms", last)
	}
	c := a.Node().Overlay().ConnectionTo(b.Node().Addr())
	if c == nil || !c.Has(brunet.Shortcut) {
		t.Fatalf("no shortcut formed: %v", c)
	}
}

func TestNewVMAndHostHelpers(t *testing.T) {
	tb := Build(fastCfg(6, true))
	v := tb.NewVM("northwestern.edu", 0)
	tb.Sim.RunFor(2 * sim.Minute)
	if !v.Node().Overlay().IsRoutable() {
		t.Fatal("extra VM never joined")
	}
	if v.Spec().CPUSpeed != 1 {
		t.Fatal("speed default")
	}
	h := tb.NewHostAt("northwestern.edu")
	if h == nil || h.Realm() != tb.vmRealms["northwestern.edu"] {
		t.Fatal("NewHostAt realm")
	}
	if v.IP() == 0 || v.IP() == tb.Workstations()[0].IP() {
		t.Fatal("VIP allocation")
	}
}
