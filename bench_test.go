package wow

// Benchmarks regenerating every table and figure of the paper's §V
// evaluation, plus the design ablations called out in DESIGN.md. Each
// benchmark runs the corresponding experiment at a size that finishes in
// seconds-to-tens-of-seconds and reports the headline quantities through
// b.ReportMetric; run `go run ./cmd/wow-bench -paper-scale` for the
// paper's full trial counts. The "shape" targets these benches verify
// against the paper are recorded in EXPERIMENTS.md.

import (
	"math"
	"strconv"
	"testing"

	"wow/internal/experiments"
)

// BenchmarkJoinLatencyDistribution reproduces the abstract's claim: 90%
// of joining nodes self-configure P2P routes within 10 s and >99%
// establish direct connections within 200 s (300 trials in the paper).
func BenchmarkJoinLatencyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := experiments.RunJoinStats(experiments.JoinOpts{Seed: int64(i + 1), Trials: 18})
		b.ReportMetric(st.PctRoutable10s, "%routable<10s")
		b.ReportMetric(st.PctShortcut200s, "%direct<200s")
		b.ReportMetric(st.P90Routable, "p90-routable-s")
		if i == 0 {
			b.Log("\n" + st.String())
		}
	}
}

// BenchmarkFig4JoinProfile reproduces both panels of Figure 4: averaged
// ICMP RTT and loss profiles while a node joins, for UFL-UFL, UFL-NWU and
// NWU-NWU placements.
func BenchmarkFig4JoinProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig4(experiments.JoinOpts{Seed: int64(i + 1), Trials: 5})
		for _, p := range res.Profiles {
			_, shortcutSeq := p.Regimes()
			b.ReportMetric(float64(shortcutSeq), p.Scenario.Name+"-shortcut-seq")
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFig5Regimes reproduces Figure 5: the three regimes of dropped
// packets in the first 50 echoes of the UFL-NWU join.
func BenchmarkFig5Regimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := experiments.RunJoinProfile(
			experiments.JoinOpts{Seed: int64(i + 1), Trials: 5, Pings: 50},
			experiments.JoinScenario{Name: "UFL-NWU", ASite: "ufl.edu", BSite: "northwestern.edu"})
		routable, shortcut := p.Regimes()
		b.ReportMetric(float64(routable), "regime1-end-seq")
		b.ReportMetric(float64(shortcut), "regime3-start-seq")
		if i == 0 {
			b.Log("\n" + p.String())
		}
	}
}

// BenchmarkTable2Bandwidth reproduces Table II: ttcp bandwidth between
// WOW node pairs with and without shortcut connections. Transfer sizes
// are scaled down (the paper's 695 MB no-shortcut transfers take hours of
// virtual time); bandwidth is size-independent once the window fills.
func BenchmarkTable2Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(experiments.Table2Opts{
			Seed:    int64(i + 1),
			Sizes:   []int64{16 << 20, 8 << 20},
			Repeats: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, cell := range res.Cells {
			name := cell.Scenario
			if cell.Shortcuts {
				name += "-shortcut"
			} else {
				name += "-multihop"
			}
			b.ReportMetric(cell.MeanKBs, name+"-KB/s")
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFig6ScpMigration reproduces Figure 6: a 720 MB SCP transfer
// whose server VM migrates UFL -> NWU mid-stream, stalls ~8 minutes and
// resumes without an application restart.
func BenchmarkFig6ScpMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(experiments.Fig6Opts{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("transfer did not survive migration")
		}
		b.ReportMetric(res.PreMBs, "pre-MB/s")
		b.ReportMetric(res.PostMBs, "post-MB/s")
		b.ReportMetric(res.StallSeconds, "stall-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFig7PbsMigration reproduces Figure 7: a PBS/MEME job stream
// whose worker VM is loaded, then migrated; the in-transit job completes
// late and subsequent jobs run faster on the unloaded destination.
func BenchmarkFig7PbsMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(experiments.Fig7Opts{Seed: int64(i + 1), Jobs: 110})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllSucceeded {
			b.Fatal("a job failed across migration")
		}
		b.ReportMetric(res.BaselineMean, "baseline-s")
		b.ReportMetric(res.LoadedMean, "loaded-s")
		b.ReportMetric(res.MigrationJobSeconds, "in-transit-s")
		b.ReportMetric(res.MigratedMean, "migrated-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFig8MemeHistogram reproduces Figure 8 and the §V-D1
// throughput comparison: PBS/MEME batch over all 33 nodes, shortcuts
// enabled vs disabled.
func BenchmarkFig8MemeHistogram(b *testing.B) {
	for _, shortcuts := range []bool{true, false} {
		name := "shortcuts"
		if !shortcuts {
			name = "no-shortcuts"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFig8(experiments.Fig8Opts{
					Seed: int64(i + 1), Jobs: 600, Shortcuts: shortcuts,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed > 0 {
					b.Fatalf("%d jobs failed", res.Failed)
				}
				b.ReportMetric(res.JobsPerMinute, "jobs/min")
				b.ReportMetric(res.MeanSeconds, "job-mean-s")
				b.ReportMetric(res.StdSeconds, "job-std-s")
				if i == 0 {
					b.Log("\n" + res.String())
				}
			}
		})
	}
}

// BenchmarkTable3FastDNAml reproduces Table III: sequential and
// PVM-parallel fastDNAml with the paper's full 50-taxa workload.
func BenchmarkTable3FastDNAml(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(experiments.Table3Opts{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SeqNode002, "seq-node002-s")
		b.ReportMetric(res.Speedup(res.Par15Shortcut), "speedup-15")
		b.ReportMetric(res.Speedup(res.Par30NoShortcut), "speedup-30-nosc")
		b.ReportMetric(res.Speedup(res.Par30Shortcut), "speedup-30-sc")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkMigrationOutage measures the §V-C no-routability window after
// killing and restarting the IPOP process on a ~150-node overlay.
func BenchmarkMigrationOutage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOutage(experiments.OutageOpts{Seed: int64(i + 1), Trials: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary.Mean, "outage-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkVirtOverhead verifies the §V-D1 ~13% virtual/physical wall
// time overhead propagates end to end.
func BenchmarkVirtOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunVirtOverhead(int64(i + 1))
		b.ReportMetric(res.OverheadPct, "overhead-%")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkAblationFarConnections sweeps k, the structured-far connection
// count, against greedy-routing path length (DESIGN.md §5).
func BenchmarkAblationFarConnections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFarCountAblation(experiments.AblationOpts{Seed: int64(i + 1)}, []int{2, 8})
		for _, p := range res.Points {
			b.ReportMetric(p.AvgHops, "hops@k="+strconv.Itoa(p.FarCount))
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkAblationShortcutThreshold sweeps the §IV-E score threshold
// against adaptation latency.
func BenchmarkAblationShortcutThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunThresholdAblation(experiments.AblationOpts{Seed: int64(i + 1)}, []float64{5, 60})
		for _, p := range res.Points {
			if !math.IsNaN(p.AdaptSeconds) {
				b.ReportMetric(p.AdaptSeconds, "adapt-s@th="+strconv.Itoa(int(p.Threshold)))
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkAblationURIOrder compares linking URI trial orders for the
// hairpin-blocked UFL-UFL case behind Figure 5's regime 3.
func BenchmarkAblationURIOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunURIOrderAblation(experiments.AblationOpts{Seed: int64(i + 1)}, 3)
		b.ReportMetric(res.PublicFirstSeconds, "public-first-s")
		b.ReportMetric(res.PrivateFirstSeconds, "private-first-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkAblationRingSize sweeps the overlay size against join latency.
func BenchmarkAblationRingSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunRingSizeAblation(experiments.AblationOpts{Seed: int64(i + 1)}, []int{30, 118}, 3)
		for _, p := range res.Points {
			b.ReportMetric(p.MedianRoutable, "routable-s@n="+strconv.Itoa(p.Routers))
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkNATRebind measures §V-E resilience: the home node's NAT
// flushes its translation tables and the overlay re-establishes
// connectivity autonomously.
func BenchmarkNATRebind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunNATRebind(int64(i+1), 2)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Recovered {
			b.Fatal("did not recover")
		}
		var worst float64
		for _, s := range res.OutageSeconds {
			if s > worst {
				worst = s
			}
		}
		b.ReportMetric(worst, "worst-outage-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkChurn measures ring self-repair after bulk router failure.
func BenchmarkChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunChurn(int64(i + 1))
		if !res.Healed {
			b.Fatal("overlay did not heal")
		}
		b.ReportMetric(res.RecoverySeconds, "heal-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkLiveMigration compares suspend-copy against pre-copy live
// migration under an active SCP transfer.
func BenchmarkLiveMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLiveMigration(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !res.BothCompleted {
			b.Fatal("a transfer failed")
		}
		b.ReportMetric(res.SuspendStallSeconds, "suspend-stall-s")
		b.ReportMetric(res.LiveStallSeconds, "live-stall-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkPartitionHeal measures overlay re-merge after a WAN partition
// severs the Northwestern site plus half the PlanetLab hosts long enough
// for every cross-side link to die.
func BenchmarkPartitionHeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPartitionHeal(experiments.FaultOpts{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Healed {
			b.Fatal("overlay did not re-merge after the partition healed")
		}
		b.ReportMetric(res.Report.RecoverySec, "remerge-s")
		b.ReportMetric(float64(res.Report.Counters["relink.success"]), "relinks")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkGracefulMigration compares the overlay ring-repair window of
// the paper's cold IPOP kill against a graceful leave with ring handoff.
func BenchmarkGracefulMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMigrationOutage(experiments.FaultOpts{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if res.GracefulWindowSec < 0 || res.BaselineWindowSec < 0 {
			b.Fatal("ring never closed before the node returned")
		}
		b.ReportMetric(res.BaselineWindowSec, "cold-window-s")
		b.ReportMetric(res.GracefulWindowSec, "graceful-window-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkCorrelatedChurn measures recovery from an overlapping
// kill+restart wave rolling across a quarter of the routers.
func BenchmarkCorrelatedChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCorrelatedChurn(experiments.FaultOpts{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Healed {
			b.Fatal("overlay did not heal after the churn wave")
		}
		b.ReportMetric(res.Report.RecoverySec, "heal-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkSchedulerComparison contrasts PBS push scheduling with
// Condor-style matchmaking on the same MEME stream.
func BenchmarkSchedulerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSchedulerComparison(int64(i+1), 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PBSJobsPerMinute, "pbs-jobs/min")
		b.ReportMetric(res.CondorJobsPerMinute, "condor-jobs/min")
		b.ReportMetric(res.CondorMatchLatency, "condor-match-s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkAblationTransport compares the UDP and TCP link transports of
// §IV-A: joins work over both, but TCP cannot hole-punch between NATed
// sites, leaving those pairs on slow multi-hop stream chains.
func BenchmarkAblationTransport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTransportAblation(experiments.AblationOpts{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.JoinUDP, "join-udp-s")
		b.ReportMetric(res.JoinTCP, "join-tcp-s")
		b.ReportMetric(res.BandwidthUDP, "bw-udp-KB/s")
		b.ReportMetric(res.BandwidthTCP, "bw-tcp-KB/s")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkScaleRouting measures the per-packet routing hot path on a
// converged 1,000-node overlay: one end-to-end packet per iteration, with
// the virtual clock frozen so keepalive and gossip timers cannot pollute
// the measurement (see experiments.ScaleOverlay). allocs/op here is the
// hard budget the hot-path refactor is held to; the repo's benchmark
// (BENCHMARK.json, bench/README.md) measures the same path end to end as
// its ring_route workload.
func BenchmarkScaleRouting(b *testing.B) {
	ov, err := experiments.BuildScaleOverlay(experiments.ScaleOpts{Seed: 1, Nodes: 1000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := ov.Pair(i)
		ov.RouteOne(src, dst)
	}
	b.StopTimer()
	if got := ov.Delivered(); got < b.N*99/100 {
		b.Fatalf("delivered %d of %d packets", got, b.N)
	}
}
