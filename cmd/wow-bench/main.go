// Command wow-bench regenerates every table and figure of the paper's
// evaluation (§V) against the simulated testbed and prints them with the
// paper's numbers alongside. Select experiments with -run; scale trial
// counts with the flags below (defaults are sized to finish in a few
// minutes of wall-clock time; use -paper-scale for the full counts). With
// -json each experiment summary is emitted as one JSON object per line on
// stdout (schema in EXPERIMENTS.md) and human-readable progress moves to
// stderr, so the stream pipes cleanly into jq or a BENCH_*.json capture.
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wow/internal/experiments"
	"wow/internal/trace"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments: join,fig4,fig5,table2,fig6,fig7,fig8,table3,outage,virt,ablations,resilience,faults,schedulers,scale,nat,gray")
	seed := flag.Int64("seed", 1, "simulation seed")
	trials := flag.Int("trials", 20, "trials per join scenario (paper: 100)")
	jobs := flag.Int("jobs", 1000, "MEME jobs for fig8 (paper: 4000)")
	nodes := flag.Int("nodes", 2000, "overlay size for the scale/nat harnesses (1000-20000)")
	packets := flag.Int("packets", 2000, "routed packets measured by the scale harness")
	shards := flag.Int("shards", 0, "scale/nat harnesses: run on this many event shards (0/1 = single queue)")
	workers := flag.Int("workers", 0, "scale/nat harnesses: worker goroutines for sharded runs (0 = min(shards, GOMAXPROCS))")
	batch := flag.Int("batch", 0, "scale/nat harnesses: batched-bootstrap batch size (0 = serial joins, or 256/64 when -shards > 1)")
	settle := flag.Float64("settle", 0, "scale/nat harnesses: convergence settle time in virtual seconds (0 = default)")
	wan := flag.Float64("wan", 0, "scale/nat harnesses: one-way inter-site latency in ms for parallel builds (0 = default; also the shard lookahead)")
	paperScale := flag.Bool("paper-scale", false, "use the paper's full trial counts (slower)")
	jsonOut := flag.Bool("json", false, "emit one JSON object per experiment on stdout")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV series into")
	traceN := flag.Uint64("trace", 0, "gray harness: sample 1-in-N originations for hop-by-hop route tracing (0 = off); records stream as trace.hop/trace.route JSONL envelopes in -json mode")
	traceHealth := flag.Float64("trace-health", 0, "gray harness: per-node health.node snapshot period in virtual seconds (0 = off; needs -trace)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the selected experiments to this file")
	flag.Parse()

	// In JSON mode stdout carries only JSON objects; narration goes to
	// stderr so the stream stays machine-consumable.
	narrate := os.Stdout
	if *jsonOut {
		narrate = os.Stderr
	}

	writeCSV := func(name, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			return
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			return
		}
		fmt.Fprintf(narrate, "(wrote %s)\n", path)
	}

	if *paperScale {
		*trials = 100
		*jobs = 4000
	}

	known := map[string]bool{
		"all": true, "join": true, "fig4": true, "fig5": true,
		"table2": true, "fig6": true, "fig7": true, "fig8": true,
		"table3": true, "outage": true, "virt": true, "ablations": true,
		"resilience": true, "faults": true, "schedulers": true,
		"scale": true, "nat": true, "gray": true,
	}
	want := map[string]bool{}
	for _, s := range strings.Split(*run, ",") {
		name := strings.TrimSpace(s)
		if !known[name] {
			fmt.Fprintf(os.Stderr, "wow-bench: unknown experiment %q (see -run in -help)\n", name)
			os.Exit(2)
		}
		want[name] = true
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wow-bench: %v\n", err)
		os.Exit(2)
	}
	all := want["all"]
	section := func(name, title string) bool {
		if !all && !want[name] {
			return false
		}
		fmt.Fprintf(narrate, "==== %s ====\n", title)
		return true
	}
	timed := func(f func()) {
		start := time.Now()
		f()
		fmt.Fprintf(narrate, "(wall %.1fs)\n\n", time.Since(start).Seconds())
	}
	exitCode := 0
	// show prints an experiment result — its String() rendering, or one
	// JSON envelope line in -json mode — or reports its error and marks the
	// run failed without aborting the remaining experiments.
	show := func(name string, v any, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "wow-bench: %v\n", err)
			exitCode = 1
			if *jsonOut {
				line, _ := json.Marshal(map[string]any{
					"experiment": name, "seed": *seed, "error": err.Error(),
				})
				fmt.Println(string(line))
			}
			return
		}
		if *jsonOut {
			line, merr := json.Marshal(map[string]any{
				"experiment": name, "seed": *seed, "data": v,
			})
			if merr != nil {
				fmt.Fprintf(os.Stderr, "wow-bench: marshal %s: %v\n", name, merr)
				exitCode = 1
				return
			}
			fmt.Println(string(line))
			return
		}
		if s, ok := v.(fmt.Stringer); ok {
			fmt.Println(s.String())
			return
		}
		fmt.Println(v)
	}

	// emitTrace streams one run's flight-recorder records: one JSONL
	// envelope per record in -json mode (experiment names trace.hop,
	// trace.route and health.node; detector tags which run emitted it), a
	// per-stream count line otherwise.
	emitTrace := func(detector string, recs []trace.Record) {
		if !*jsonOut {
			var hops, routes, health int
			for _, r := range recs {
				switch r.Stream {
				case trace.StreamHop:
					hops++
				case trace.StreamRoute:
					routes++
				case trace.StreamHealth:
					health++
				}
			}
			fmt.Fprintf(narrate, "  [%8s] flight recorder: %d hop, %d route, %d health records\n",
				detector, hops, routes, health)
			return
		}
		for i := range recs {
			line, err := json.Marshal(map[string]any{
				"experiment": recs[i].EnvelopeName(), "seed": *seed,
				"detector": detector, "data": &recs[i],
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "wow-bench: marshal trace record: %v\n", err)
				exitCode = 1
				return
			}
			fmt.Println(string(line))
		}
	}

	if section("join", "Join latency (abstract claim)") {
		timed(func() {
			show("join", experiments.RunJoinStats(experiments.JoinOpts{Seed: *seed, Trials: *trials * 3}), nil)
		})
	}
	if section("fig4", "Figure 4: ICMP profiles during node join") {
		timed(func() {
			res := experiments.RunFig4(experiments.JoinOpts{Seed: *seed, Trials: *trials})
			show("fig4", res, nil)
			for _, p := range res.Profiles {
				writeCSV("fig4-"+p.Scenario.Name+".csv", p.CSV())
				if !*jsonOut {
					continue
				}
				// One fig4.series row per echo sequence number; rtt_ms is
				// null when every trial dropped that echo (NaN internally).
				for i := range p.LossPct {
					var rtt any
					if i < len(p.RTTms) && !math.IsNaN(p.RTTms[i]) {
						rtt = p.RTTms[i]
					}
					line, _ := json.Marshal(map[string]any{
						"experiment": "fig4.series", "seed": *seed,
						"data": map[string]any{
							"scenario": p.Scenario.Name, "seq": i + 1,
							"loss_pct": p.LossPct[i], "rtt_ms": rtt,
						},
					})
					fmt.Println(string(line))
				}
			}
		})
	}
	if section("fig5", "Figure 5: three regimes (UFL-NWU, first 50 echoes)") {
		timed(func() {
			p := experiments.RunJoinProfile(experiments.JoinOpts{Seed: *seed, Trials: *trials, Pings: 50},
				experiments.JoinScenario{Name: "UFL-NWU", ASite: "ufl.edu", BSite: "northwestern.edu"})
			if *jsonOut {
				show("fig5", p, nil)
			} else {
				for i := 0; i < 50; i++ {
					fmt.Printf("  seq %2d: loss %5.1f%%  rtt %7.1f ms\n", i+1, p.LossPct[i], p.RTTms[i])
				}
				r, s := p.Regimes()
				fmt.Printf("  regime 1 ends ~seq %d (routable); regime 3 begins ~seq %d (shortcut)\n", r, s)
			}
		})
	}
	if section("table2", "Table II: ttcp bandwidth") {
		timed(func() {
			res, err := experiments.RunTable2(experiments.Table2Opts{Seed: *seed})
			show("table2", res, err)
		})
	}
	if section("fig6", "Figure 6: SCP transfer across server migration") {
		timed(func() {
			res, err := experiments.RunFig6(experiments.Fig6Opts{Seed: *seed})
			show("fig6", res, err)
			if err == nil {
				writeCSV("fig6-progress.csv", res.Progress.CSV())
				if *jsonOut {
					// One fig6.series row per 5 s progress sample: seconds
					// since transfer start, bytes on the client's disk.
					for i := 0; i < res.Progress.Len(); i++ {
						t, v := res.Progress.At(i)
						line, _ := json.Marshal(map[string]any{
							"experiment": "fig6.series", "seed": *seed,
							"data": map[string]any{"t_sec": t, "bytes": v},
						})
						fmt.Println(string(line))
					}
				}
			}
		})
	}
	if section("fig7", "Figure 7: PBS job stream across worker migration") {
		timed(func() {
			res, err := experiments.RunFig7(experiments.Fig7Opts{Seed: *seed})
			show("fig7", res, err)
		})
	}
	if section("fig8", "Figure 8 / §V-D1: MEME batch throughput") {
		timed(func() {
			for _, sc := range []bool{true, false} {
				res, err := experiments.RunFig8(experiments.Fig8Opts{Seed: *seed, Jobs: *jobs, Shortcuts: sc})
				show("fig8", res, err)
			}
		})
	}
	if section("table3", "Table III: fastDNAml-PVM") {
		timed(func() {
			res, err := experiments.RunTable3(experiments.Table3Opts{Seed: *seed})
			show("table3", res, err)
		})
	}
	if section("outage", "§V-C: IPOP kill/restart no-routability window") {
		timed(func() {
			res, err := experiments.RunOutage(experiments.OutageOpts{Seed: *seed})
			show("outage", res, err)
		})
	}
	if section("virt", "§V-D1: virtualization overhead") {
		timed(func() {
			show("virt", experiments.RunVirtOverhead(*seed), nil)
		})
	}
	if section("resilience", "Resilience: NAT rebinding, churn, live migration") {
		timed(func() {
			natRes, err := experiments.RunNATRebind(*seed, 3)
			show("nat-rebind", natRes, err)
			show("churn", experiments.RunChurn(*seed, 0.25), nil)
			migRes, err := experiments.RunLiveMigration(*seed)
			show("live-migration", migRes, err)
		})
	}
	if section("faults", "Fault injection: migration window, partition repair, correlated churn") {
		timed(func() {
			mo, err := experiments.RunMigrationOutage(experiments.MigrationOutageOpts{Seed: *seed})
			show("migration-outage", mo, err)
			ph, err := experiments.RunPartitionHeal(experiments.PartitionHealOpts{Seed: *seed})
			show("partition-heal", ph, err)
			cc, err := experiments.RunCorrelatedChurn(experiments.ChurnWaveOpts{Seed: *seed})
			show("correlated-churn", cc, err)
		})
	}
	if section("schedulers", "Middleware comparison: PBS vs Condor") {
		timed(func() {
			res, err := experiments.RunSchedulerComparison(*seed, *jobs/2)
			show("schedulers", res, err)
		})
	}
	if section("ablations", "Design ablations") {
		timed(func() {
			ao := experiments.AblationOpts{Seed: *seed}
			show("ablation-farcount", experiments.RunFarCountAblation(ao, nil), nil)
			show("ablation-threshold", experiments.RunThresholdAblation(ao, nil), nil)
			show("ablation-uriorder", experiments.RunURIOrderAblation(ao, 5), nil)
			show("ablation-ringsize", experiments.RunRingSizeAblation(ao, nil, 5), nil)
			ta, err := experiments.RunTransportAblation(ao)
			show("ablation-transport", ta, err)
		})
	}
	if section("nat", "NAT traversal: pairwise connectivity matrix, all-symmetric ring") {
		timed(func() {
			m, err := experiments.RunNATMatrix(*seed)
			show("nat-matrix", m, err)
			srOpts := experiments.SymRingOpts{Seed: *seed}
			if *shards > 1 || *batch > 0 {
				// Parallel mode: the sharded batched build takes the same
				// sizing flags as the scale harness and streams a
				// nat.series JSONL row per batch (tunnels formed, upgrade
				// probes, routability over build time).
				srOpts.Nodes = *nodes
				srOpts.Shards = *shards
				srOpts.Workers = *workers
				srOpts.BatchJoin = *batch
				srOpts.Settle = experiments.SettleSeconds(*settle)
				srOpts.WANLatency = experiments.Milliseconds(*wan)
				srOpts.OnProgress = func(p experiments.NATPoint) {
					if *jsonOut {
						line, _ := json.Marshal(map[string]any{
							"experiment": "nat.series", "seed": *seed, "data": p,
						})
						fmt.Println(string(line))
						return
					}
					fmt.Fprintf(narrate, "  t=%6.0fs virt  %6d joined  routable %5.1f%%  %6d tunnels  %8d upgrade probes  %12d events\n",
						p.VirtualSec, p.Joined, p.RoutableFrac*100, p.Tunnels, p.UpgradeProbes, p.Events)
				}
			}
			sr, err := experiments.RunSymmetricRing(srOpts)
			show("symmetric-ring", sr, err)
		})
	}
	if section("gray", "Gray failures: fixed vs adaptive detector survivability") {
		timed(func() {
			// The bench-wide -nodes default (2000) is sized for the scale
			// harness; gray's own default is 32. Honor -nodes only when the
			// user passed it explicitly.
			gOpts := experiments.GrayOpts{
				Seed: *seed, Shards: *shards, Workers: *workers,
				TraceSample: *traceN,
				TraceHealth: experiments.SettleSeconds(*traceHealth),
			}
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "nodes" {
					gOpts.Nodes = *nodes
				}
			})
			gOpts.OnProgress = func(p experiments.GrayPoint) {
				if *jsonOut {
					line, _ := json.Marshal(map[string]any{
						"experiment": "gray.series", "seed": *seed, "data": p,
					})
					fmt.Println(string(line))
					return
				}
				fmt.Fprintf(narrate, "  [%8s] w%d t=%6.0fs virt  routable %5.1f%%  false %4d  confirmed %3d  deaths %3d  detect %6.0fms  %10d events\n",
					p.Detector, p.Window, p.VirtualSec, p.RoutableFrac*100,
					p.FalseSuspects, p.Confirmed, p.Deaths, p.MeanDetectMs, p.Events)
			}
			res, err := experiments.RunGrayCompare(gOpts)
			if err == nil && *traceN > 0 {
				emitTrace(res.Fixed.Detector, res.Fixed.Trace)
				emitTrace(res.Adaptive.Detector, res.Adaptive.Trace)
			}
			show("gray", res, err)
		})
	}
	if section("scale", "Scale harness: 1k-20k-node overlay, routing hot path") {
		timed(func() {
			opts := experiments.ScaleOpts{
				Seed: *seed, Nodes: *nodes, Packets: *packets,
				Shards: *shards, Workers: *workers, BatchJoin: *batch,
				Settle:     experiments.SettleSeconds(*settle),
				WANLatency: experiments.Milliseconds(*wan),
			}
			// Batched builds stream a joins/sec-over-build-time series: one
			// scale.series JSONL row per batch in -json mode, a narrated
			// progress line otherwise.
			opts.OnProgress = func(p experiments.ScalePoint) {
				if *jsonOut {
					line, _ := json.Marshal(map[string]any{
						"experiment": "scale.series", "seed": *seed, "data": p,
					})
					fmt.Println(string(line))
					return
				}
				fmt.Fprintf(narrate, "  t=%6.0fs virt  %6d joined  %7.1f joins/s wall  %12d events\n",
					p.VirtualSec, p.Joined, p.JoinsPerSec, p.Events)
			}
			res, err := experiments.RunScale(opts)
			show("scale", res, err)
		})
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "wow-bench: %v\n", err)
		exitCode = 1
	}
	os.Exit(exitCode)
}

// startProfiles begins a CPU profile into cpuPath and returns the function
// that ends it and writes the allocation profile (every allocation since
// process start) to memPath. An empty path skips that profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // fold the last cycle's samples into the profile
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
