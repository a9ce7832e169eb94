package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"wow/internal/sim"
)

// These tests assert the paper-shape properties at reduced scale; the
// benchmarks in the repository root run the full-size versions.

func TestJoinProfileShapes(t *testing.T) {
	opts := JoinOpts{Seed: 1, Trials: 4, Pings: 260}
	profiles := map[string]*JoinProfile{}
	for _, sc := range Fig4Scenarios() {
		profiles[sc.Name] = RunJoinProfile(opts, sc)
	}

	for name, p := range profiles {
		// Regime 1: early loss, then clean.
		early := p.LossPct[0] + p.LossPct[1] + p.LossPct[2]
		if early == 0 {
			t.Errorf("%s: no regime-1 loss at all", name)
		}
		var late float64
		for _, l := range p.LossPct[100:200] {
			late += l
		}
		if late/100 > 5 {
			t.Errorf("%s: steady-state loss %.1f%% too high", name, late/100)
		}
		if s := p.String(); !strings.Contains(s, "Figure 4") {
			t.Errorf("%s: String() malformed", name)
		}
	}

	// Figure 4's scenario ordering: NWU-NWU and UFL-NWU adapt fast
	// (~tens of seconds); UFL-UFL is delayed to ~200s by the hairpin-
	// blocked first URI.
	_, uflufl := profiles["UFL-UFL"].Regimes()
	_, uflnwu := profiles["UFL-NWU"].Regimes()
	_, nwunwu := profiles["NWU-NWU"].Regimes()
	if uflnwu > 60 || nwunwu > 60 {
		t.Errorf("fast scenarios too slow: UFL-NWU=%d NWU-NWU=%d", uflnwu, nwunwu)
	}
	if uflufl < 120 || uflufl > 260 {
		t.Errorf("UFL-UFL shortcut at seq %d, want ~150-220 (paper ~200)", uflufl)
	}

	// Direct-path RTTs after adaptation: UFL-NWU ~38ms, NWU-NWU ~2ms.
	lastRTT := func(p *JoinProfile) float64 {
		for i := len(p.RTTms) - 1; i >= 0; i-- {
			if !math.IsNaN(p.RTTms[i]) {
				return p.RTTms[i]
			}
		}
		return math.NaN()
	}
	if r := lastRTT(profiles["UFL-NWU"]); r < 30 || r > 60 {
		t.Errorf("UFL-NWU steady RTT %.1fms, want ~38-45", r)
	}
	if r := lastRTT(profiles["NWU-NWU"]); r > 10 {
		t.Errorf("NWU-NWU steady RTT %.1fms, want LAN-scale", r)
	}
}

func TestJoinStatsMeetsClaims(t *testing.T) {
	st := RunJoinStats(JoinOpts{Seed: 2, Trials: 12})
	if st.PctRoutable10s < 90 {
		t.Errorf("routable within 10s: %.0f%%, paper claims 90%%", st.PctRoutable10s)
	}
	if st.PctShortcut200s < 99 {
		t.Errorf("direct within 200s: %.0f%%, paper claims >99%%", st.PctShortcut200s)
	}
	if !strings.Contains(st.String(), "Join latency") {
		t.Error("String malformed")
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := RunTable2(Table2Opts{Seed: 1, Sizes: []int64{8 << 20}, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{"UFL-UFL", "UFL-NWU"} {
		on := res.Cell(sc, true)
		off := res.Cell(sc, false)
		if on == nil || off == nil {
			t.Fatalf("%s: missing cells", sc)
		}
		// The paper's headline: direct connections are an order of
		// magnitude faster (19x and 15x).
		if on.MeanKBs < 8*off.MeanKBs {
			t.Errorf("%s: shortcut %0.f KB/s vs multihop %.0f KB/s; want >=8x", sc, on.MeanKBs, off.MeanKBs)
		}
	}
	// UFL-UFL direct is LAN: faster than the WAN-window-limited UFL-NWU.
	if res.Cell("UFL-UFL", true).MeanKBs <= res.Cell("UFL-NWU", true).MeanKBs {
		t.Error("UFL-UFL direct should beat UFL-NWU direct")
	}
	// Absolute calibration: within 2x of the paper's numbers.
	if v := res.Cell("UFL-UFL", true).MeanKBs; v < 800 || v > 3200 {
		t.Errorf("UFL-UFL shortcut %.0f KB/s, paper 1614", v)
	}
	if v := res.Cell("UFL-NWU", false).MeanKBs; v < 40 || v > 170 {
		t.Errorf("UFL-NWU multihop %.0f KB/s, paper 85", v)
	}
	if !strings.Contains(res.String(), "Table II") {
		t.Error("String malformed")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := RunFig6(Fig6Opts{Seed: 1, FileBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("transfer did not survive the migration")
	}
	// Stall ≈ image transfer time (768MB at 1.6MB/s = 480s) ± repair.
	if res.StallSeconds < 300 || res.StallSeconds > 700 {
		t.Errorf("stall %.0fs, want ~480s", res.StallSeconds)
	}
	if res.PreMBs < 0.8 || res.PreMBs > 2 {
		t.Errorf("pre-migration rate %.2f MB/s, paper 1.36", res.PreMBs)
	}
	if res.PostMBs <= 0 {
		t.Error("no post-migration progress measured")
	}
	if res.Progress.Len() == 0 {
		t.Error("no progress series")
	}
	pinned(t, "fig6", res.String(), pinFig6Seed1)
}

func TestFig7Shape(t *testing.T) {
	res, err := RunFig7(Fig7Opts{Seed: 1, Jobs: 110})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSucceeded {
		t.Fatal("a job failed")
	}
	if res.LoadedMean < 1.5*res.BaselineMean {
		t.Errorf("load did not stretch jobs: baseline %.1f loaded %.1f", res.BaselineMean, res.LoadedMean)
	}
	if res.MigrationJobSeconds < 300 {
		t.Errorf("in-transit job %.0fs; the WAN migration should stretch it by hundreds of seconds", res.MigrationJobSeconds)
	}
	if res.MigratedMean > 1.3*res.BaselineMean {
		t.Errorf("post-migration jobs %.1fs did not recover to baseline %.1fs", res.MigratedMean, res.BaselineMean)
	}
	if len(res.Points) != 110 {
		t.Errorf("points = %d", len(res.Points))
	}
	pinned(t, "fig7", res.String(), pinFig7Seed1)
}

func TestFig8Shape(t *testing.T) {
	on, err := RunFig8(Fig8Opts{Seed: 1, Jobs: 250, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunFig8(Fig8Opts{Seed: 1, Jobs: 250, Shortcuts: false})
	if err != nil {
		t.Fatal(err)
	}
	if on.Failed > 0 || off.Failed > 0 {
		t.Fatalf("failures: on=%d off=%d", on.Failed, off.Failed)
	}
	if on.JobsPerMinute <= off.JobsPerMinute {
		t.Errorf("shortcuts did not improve throughput: %.1f vs %.1f jobs/min", on.JobsPerMinute, off.JobsPerMinute)
	}
	if on.MeanSeconds >= off.MeanSeconds {
		t.Errorf("shortcuts did not shorten jobs: %.1f vs %.1f s", on.MeanSeconds, off.MeanSeconds)
	}
	if on.StdSeconds >= off.StdSeconds {
		t.Errorf("shortcuts did not tighten the distribution: std %.1f vs %.1f", on.StdSeconds, off.StdSeconds)
	}
	// Calibration: with shortcuts ~53 jobs/min and ~24s mean.
	if on.JobsPerMinute < 40 || on.JobsPerMinute > 60 {
		t.Errorf("shortcut throughput %.1f jobs/min, paper 53", on.JobsPerMinute)
	}
	if on.MeanSeconds < 20 || on.MeanSeconds > 32 {
		t.Errorf("shortcut job mean %.1fs, paper 24.1", on.MeanSeconds)
	}
	// The slow ncgrid node runs well under its fair 3% share (paper 1.6%).
	if share := on.JobShare["node032"]; share > 0.03 {
		t.Errorf("node032 share %.1f%%, want well under 3%%", share*100)
	}
}

func TestTable3Shape(t *testing.T) {
	opts := Table3Opts{Seed: 1}
	opts.fillDefaults()
	opts.Workload.SeqCPU = opts.Workload.SeqCPU / 8 // scale down for test speed
	res, err := RunTable3(opts)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.SeqNode034 / res.SeqNode002
	if ratio < 1.9 || ratio > 2.2 {
		t.Errorf("node034/node002 sequential ratio %.2f, paper 2.03", ratio)
	}
	// At 1/8 CPU scale communication weighs more, so only the robust
	// orderings are asserted: 30-with-shortcuts beats both other
	// parallel configs (the full-scale benchmark checks the paper's
	// complete ordering).
	s15 := res.Speedup(res.Par15Shortcut)
	s30n := res.Speedup(res.Par30NoShortcut)
	s30 := res.Speedup(res.Par30Shortcut)
	if !(s30 > s30n && s30 > s15) {
		t.Errorf("speedup ordering broken: 15sc=%.1f 30nosc=%.1f 30sc=%.1f", s15, s30n, s30)
	}
	// Full scale yields ~16x (paper 13.6); at 1/8 scale the fixed round
	// synchronization costs weigh ~8x heavier, so the bound is loose.
	if s30 < 7 || s30 > 22 {
		t.Errorf("30-node speedup %.1f, paper 13.6", s30)
	}
	if !strings.Contains(res.String(), "Table III") {
		t.Error("String malformed")
	}
	pinned(t, "table3", res.String(), pinTable3Seed1)
}

func TestOutageRecovery(t *testing.T) {
	res, err := RunOutage(OutageOpts{Seed: 1, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Max > 120 {
		t.Errorf("restart recovery %.0fs; this implementation should heal in seconds", res.Summary.Max)
	}
	if !strings.Contains(res.String(), "no-routability") {
		t.Error("String malformed")
	}
	pinned(t, "outage", res.String(), pinOutageSeed1)
}

func TestVirtOverheadIs13Pct(t *testing.T) {
	res := RunVirtOverhead(1)
	if res.OverheadPct < 12 || res.OverheadPct > 14 {
		t.Errorf("overhead %.1f%%, want ~13%%", res.OverheadPct)
	}
}

func TestFarCountAblationMonotone(t *testing.T) {
	res := RunFarCountAblation(AblationOpts{Seed: 1, Routers: 60, PlanetLabHosts: 10}, []int{2, 8})
	if len(res.Points) != 2 {
		t.Fatal("points")
	}
	if res.Points[1].AvgHops >= res.Points[0].AvgHops {
		t.Errorf("more far connections should mean fewer hops: k=2 %.2f vs k=8 %.2f",
			res.Points[0].AvgHops, res.Points[1].AvgHops)
	}
	if res.Points[1].ConnsPerNode <= res.Points[0].ConnsPerNode {
		t.Error("more far connections should cost more state")
	}
}

func TestThresholdAblationMonotone(t *testing.T) {
	res := RunThresholdAblation(AblationOpts{Seed: 1, Routers: 40, PlanetLabHosts: 8}, []float64{5, 60})
	if len(res.Points) != 2 {
		t.Fatal("points")
	}
	lo, hi := res.Points[0].AdaptSeconds, res.Points[1].AdaptSeconds
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Fatalf("adaptation never happened: %v %v", lo, hi)
	}
	if hi <= lo {
		t.Errorf("higher threshold should adapt slower: th=5 %.0fs vs th=60 %.0fs", lo, hi)
	}
}

func TestURIOrderAblation(t *testing.T) {
	res := RunURIOrderAblation(AblationOpts{Seed: 1}, 3)
	// Private-first fixes the UFL-UFL delay; public-first burns ~150s on
	// the hairpin-blocked URI.
	if res.PrivateFirstSeconds >= res.PublicFirstSeconds {
		t.Errorf("private-first (%.0fs) should beat public-first (%.0fs) for same-site pairs",
			res.PrivateFirstSeconds, res.PublicFirstSeconds)
	}
	if res.PublicFirstSeconds < 100 {
		t.Errorf("public-first %.0fs; should show the ~150s hairpin penalty", res.PublicFirstSeconds)
	}
}

func TestRingSizeAblation(t *testing.T) {
	res := RunRingSizeAblation(AblationOpts{Seed: 1}, []int{24, 60}, 3)
	for _, p := range res.Points {
		if p.MedianRoutable > 15 {
			t.Errorf("n=%d: joins should stay fast (got %.0fs)", p.Routers, p.MedianRoutable)
		}
	}
	if !strings.Contains(res.String(), "overlay size") {
		t.Error("String malformed")
	}
}

func TestFig6StallDetectionHelpers(t *testing.T) {
	// Degenerate option handling.
	var o Fig6Opts
	o.fillDefaults()
	if o.FileBytes != 720<<20 || fig6MigrateAt != 200*sim.Second {
		t.Fatalf("defaults: %+v", o)
	}
	var jo JoinOpts
	jo.fillDefaults()
	if jo.Trials != 100 || jo.Pings != 400 {
		t.Fatalf("join defaults: %+v", jo)
	}
	// The overlay's size defaults in the testbed: the paper's 118 routers.
	if tb, _ := joinTestbed(jo, "ufl.edu", true); len(tb.Routers()) != 118 || tb.Cfg.PlanetLabHosts != 20 {
		t.Fatalf("join testbed: %d routers on %d hosts, want 118 on 20", len(tb.Routers()), tb.Cfg.PlanetLabHosts)
	}
}

// TestTable2OrderedAndRepeatable: the scenarios of a leg share one testbed,
// so their order is part of the experiment. Cells come out in the table's
// order, and the same options reproduce the same table.
func TestTable2OrderedAndRepeatable(t *testing.T) {
	opts := Table2Opts{Seed: 2, Sizes: []int64{1 << 20}, Repeats: 1, Routers: 30, PlanetLabHosts: 6}
	first, err := RunTable2(opts)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, c := range first.Cells {
		order = append(order, fmt.Sprintf("%s/%v", c.Scenario, c.Shortcuts))
	}
	want := []string{"UFL-UFL/true", "UFL-NWU/true", "UFL-UFL/false", "UFL-NWU/false"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("cell order %v, want %v", order, want)
	}
	second, err := RunTable2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("two runs of the same options differ:\n%s\n%s", first, second)
	}
}
