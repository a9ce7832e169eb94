package vm

import (
	"fmt"
	"testing"

	"wow/internal/brunet"
	"wow/internal/ipop"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/vip"
)

type rig struct {
	s    *sim.Simulator
	net  *phys.Network
	boot []brunet.URI
}

func newRig(t *testing.T, seed int64, routers int) *rig {
	t.Helper()
	s := sim.New(seed)
	net := phys.NewNetwork(s, phys.UniformLatency(
		phys.PathModel{OneWay: sim.Millisecond},
		phys.PathModel{OneWay: 15 * sim.Millisecond},
	))
	r := &rig{s: s, net: net}
	cfg := brunet.FastTestConfig()
	for i := 0; i < routers; i++ {
		h := net.AddHost(fmt.Sprintf("r%02d", i), net.AddSite(fmt.Sprintf("s%02d", i)), net.Root(), phys.HostConfig{})
		rt := ipop.NewRouter(h, brunet.AddrFromString(fmt.Sprintf("r%02d", i)), cfg)
		if err := rt.Start(r.boot); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			r.boot = ipop.BootURIs(rt)
		}
		s.RunFor(2 * sim.Second)
	}
	s.RunFor(30 * sim.Second)
	return r
}

func (r *rig) addVM(t *testing.T, name, ip string, spec Spec) *VM {
	t.Helper()
	spec.Name = name
	h := r.net.AddHost(name+"-host", r.net.AddSite(name+"-site"), r.net.Root(), phys.HostConfig{})
	v := New(h, vip.MustParseIP(ip), spec, brunet.FastTestConfig())
	if err := v.Start(r.boot); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{}
	s.fillDefaults()
	if s.CPUSpeed != 1 || s.VirtOverhead != 1.13 || s.ImageBytes == 0 {
		t.Fatalf("defaults: %+v", s)
	}
}

func TestExecuteBaselineJob(t *testing.T) {
	r := newRig(t, 1, 4)
	v := r.addVM(t, "vm1", "172.16.1.2", Spec{VirtOverhead: 1.13})
	start := r.s.Now()
	var doneAt sim.Time
	v.Execute(10*sim.Second, func() { doneAt = r.s.Now() })
	r.s.RunFor(sim.Minute)
	wall := doneAt.Sub(start).Seconds()
	if wall < 11.2 || wall > 11.4 {
		t.Fatalf("10s baseline job took %.2fs, want ~11.3s (13%% virt overhead)", wall)
	}
}

func TestCPUSpeedScalesJobs(t *testing.T) {
	r := newRig(t, 2, 4)
	fast := r.addVM(t, "fast", "172.16.1.2", Spec{CPUSpeed: 1.33, VirtOverhead: 1})
	slow := r.addVM(t, "slow", "172.16.1.3", Spec{CPUSpeed: 0.49, VirtOverhead: 1})
	var fastAt, slowAt sim.Time
	start := r.s.Now()
	fast.Execute(100*sim.Second, func() { fastAt = r.s.Now() })
	slow.Execute(100*sim.Second, func() { slowAt = r.s.Now() })
	r.s.RunFor(10 * sim.Minute)
	ratio := slowAt.Sub(start).Seconds() / fastAt.Sub(start).Seconds()
	want := 1.33 / 0.49
	if ratio < want*0.99 || ratio > want*1.01 {
		t.Fatalf("speed ratio %.2f, want %.2f", ratio, want)
	}
	if sim.Duration(float64(100*sim.Second)*fast.rate()) != fastAt.Sub(start) {
		t.Fatal("wall time does not follow the VM's rate")
	}
}

func TestJobsRunFIFO(t *testing.T) {
	r := newRig(t, 3, 4)
	v := r.addVM(t, "vm1", "172.16.1.2", Spec{VirtOverhead: 1})
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		v.Execute(sim.Second, func() { order = append(order, i) })
	}
	if v.current == nil {
		t.Fatal("VM not busy with queued jobs")
	}
	if len(v.queue) != 4 {
		t.Fatalf("queue = %d", len(v.queue))
	}
	r.s.RunFor(sim.Minute)
	for i, got := range order {
		if got != i {
			t.Fatalf("jobs out of order: %v", order)
		}
	}
}

func TestHostLoadStretchesRunningJob(t *testing.T) {
	r := newRig(t, 4, 4)
	v := r.addVM(t, "vm1", "172.16.1.2", Spec{VirtOverhead: 1})
	start := r.s.Now()
	var doneAt sim.Time
	v.Execute(10*sim.Second, func() { doneAt = r.s.Now() })
	// After 5s (half done), double the load: remaining 5s takes 10s.
	r.s.After(5*sim.Second, func() { v.SetHostLoad(2) })
	r.s.RunFor(sim.Minute)
	wall := doneAt.Sub(start).Seconds()
	if wall < 14.9 || wall > 15.1 {
		t.Fatalf("job took %.2fs, want ~15s (load doubled at half-way)", wall)
	}
	if v.hostLoad != 2 {
		t.Fatal("host load not recorded")
	}
	v.SetHostLoad(0.5)
	if v.hostLoad != 1 {
		t.Fatal("load below 1 not clamped")
	}
}

func TestMigrationMovesVMAndResumesJob(t *testing.T) {
	r := newRig(t, 5, 8)
	v := r.addVM(t, "vm1", "172.16.1.2", Spec{VirtOverhead: 1, ImageBytes: 64 << 20})
	r.s.RunFor(30 * sim.Second)

	start := r.s.Now()
	var doneAt sim.Time
	v.Execute(20*sim.Second, func() { doneAt = r.s.Now() })

	dst := r.net.AddHost("dst-host", r.net.AddSite("dst-site"), r.net.Root(), phys.HostConfig{})
	migrated := false
	r.s.After(5*sim.Second, func() {
		if err := v.Migrate(dst, MigrationConfig{TransferBps: 8 << 20}, func() { migrated = true }); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	r.s.RunFor(10 * sim.Minute)
	if !migrated {
		t.Fatal("migration never completed")
	}
	if v.Host() != dst {
		t.Fatal("VM not on destination host")
	}
	if doneAt == 0 {
		t.Fatal("job lost across migration")
	}
	// 20s job + 8s transfer stall (64MB at 8MB/s), started 5s in.
	wall := doneAt.Sub(start).Seconds()
	if wall < 27 || wall > 30 {
		t.Fatalf("migrated job took %.1fs, want ~28s (20s work + 8s stall)", wall)
	}
	if !v.Node().Up() {
		t.Fatal("IPOP not restarted after migration")
	}
	r.s.RunFor(2 * sim.Minute)
	if !v.Node().Overlay().IsRoutable() {
		t.Fatal("migrated VM never became routable")
	}
}

func TestMigrateErrors(t *testing.T) {
	r := newRig(t, 6, 4)
	v := r.addVM(t, "vm1", "172.16.1.2", Spec{ImageBytes: 1 << 30})
	dst := r.net.AddHost("d", r.net.AddSite("d"), r.net.Root(), phys.HostConfig{})
	if err := v.Migrate(dst, MigrationConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := v.Migrate(dst, MigrationConfig{}, nil); err == nil {
		t.Fatal("double migrate accepted")
	}
	v2 := New(r.net.AddHost("h2", r.net.AddSite("h2"), r.net.Root(), phys.HostConfig{}),
		vip.MustParseIP("172.16.1.9"), Spec{Name: "off"}, brunet.FastTestConfig())
	if err := v2.Migrate(dst, MigrationConfig{}, nil); err == nil {
		t.Fatal("migrating powered-off VM accepted")
	}
}

// TestDecommission: a decommissioned VM drops its jobs and leaves the
// overlay, a second Decommission is a no-op, and the VM can start again.
func TestDecommission(t *testing.T) {
	r := newRig(t, 7, 4)
	v := r.addVM(t, "vm1", "172.16.1.2", Spec{})
	v.Execute(10*sim.Second, func() { t.Error("job completed after decommission") })
	v.Execute(10*sim.Second, nil)
	v.Decommission()
	v.Decommission() // idempotent
	if v.Running() || v.current != nil || len(v.queue) != 0 {
		t.Fatal("VM still running after decommission")
	}
	r.s.RunFor(sim.Minute)
	if err := v.Start(r.boot); err != nil {
		t.Fatalf("restart after decommission: %v", err)
	}
	if err := v.Start(r.boot); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestStringForm(t *testing.T) {
	r := newRig(t, 8, 4)
	v := r.addVM(t, "vm1", "172.16.1.2", Spec{})
	if v.String() == "" || v.Name() != "vm1" {
		t.Fatal("diagnostics")
	}
	if v.Spec().VirtOverhead != 1.13 {
		t.Fatal("spec defaults not applied")
	}
	if v.Stack() == nil {
		t.Fatal("stack nil")
	}
}

func TestLiveMigrationRunsDuringPreCopy(t *testing.T) {
	r := newRig(t, 9, 8)
	v := r.addVM(t, "vm1", "172.16.1.2", Spec{VirtOverhead: 1, ImageBytes: 64 << 20})
	r.s.RunFor(30 * sim.Second)

	start := r.s.Now()
	var doneAt sim.Time
	v.Execute(30*sim.Second, func() { doneAt = r.s.Now() })

	dst := r.net.AddHost("dst", r.net.AddSite("dst"), r.net.Root(), phys.HostConfig{})
	migrated := false
	// 8 MB/s transfer, 256 KB/s dirty rate: pre-copy ~8s + tiny stop.
	if err := v.MigrateLive(dst, MigrationConfig{TransferBps: 8 << 20}, func() { migrated = true }); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(5 * sim.Minute)
	if !migrated || v.Host() != dst {
		t.Fatal("live migration did not complete")
	}
	// The job keeps running during pre-copy: wall time ≈ 30s + sub-second
	// stop-and-copy, nowhere near the 8s full-stall of suspend migration.
	wall := doneAt.Sub(start).Seconds()
	if wall > 32 {
		t.Fatalf("job took %.1fs; live migration should not stall it", wall)
	}
	r.s.RunFor(2 * sim.Minute)
	if !v.Node().Overlay().IsRoutable() {
		t.Fatal("not routable after live migration")
	}
}

func TestLiveMigrationRejectsDivergentDirtyRate(t *testing.T) {
	r := newRig(t, 10, 4)
	v := r.addVM(t, "vm1", "172.16.1.2", Spec{})
	dst := r.net.AddHost("d", r.net.AddSite("d"), r.net.Root(), phys.HostConfig{})
	// A WAN slower than the guest dirties memory.
	err := v.MigrateLive(dst, MigrationConfig{TransferBps: dirtyRateBps / 2}, nil)
	if err == nil {
		t.Fatal("divergent pre-copy accepted")
	}
}
