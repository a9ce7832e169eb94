// Command wow-bench regenerates every table and figure of the paper's
// evaluation (§V) against the simulated testbed and prints them with the
// paper's numbers alongside. Select experiments with -run; scale trial
// counts with the flags below (defaults are sized to finish in a few
// minutes of wall-clock time; use -paper-scale for the full counts). With
// -json each experiment summary is emitted as one JSON object per line on
// stdout (schema in EXPERIMENTS.md) and human-readable progress moves to
// stderr, so the stream pipes cleanly into jq or a capture file.
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"wow/internal/experiments"
	"wow/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// bench is one invocation: the parsed flags and where output goes.
type bench struct {
	seed                         int64
	trials, jobs, nodes, packets int
	shards, workers, batch       int
	settle, wan, traceHealth     float64
	traceN                       uint64
	nodesSet, jsonOut            bool
	stdout, stderr, narrate      io.Writer
	failed                       bool
}

// experiment is one -run name: its section title and what it runs.
type experiment struct {
	name, title string
	run         func(*bench)
}

// registry lists the experiments in the order -run all executes them. The
// -run help text and the unknown-name check are derived from it.
var registry = []experiment{
	{"join", "Join latency (abstract claim)", runJoin},
	{"fig4", "Figure 4: ICMP profiles during node join", runFig4},
	{"fig5", "Figure 5: three regimes (UFL-NWU, first 50 echoes)", runFig5},
	{"table2", "Table II: ttcp bandwidth", func(b *bench) {
		res, err := experiments.RunTable2(experiments.Table2Opts{Seed: b.seed})
		b.show("table2", res, err)
	}},
	{"fig6", "Figure 6: SCP transfer across server migration", runFig6},
	{"fig7", "Figure 7: PBS job stream across worker migration", func(b *bench) {
		res, err := experiments.RunFig7(experiments.Fig7Opts{Seed: b.seed})
		b.show("fig7", res, err)
	}},
	{"fig8", "Figure 8 / §V-D1: MEME batch throughput", func(b *bench) {
		for _, sc := range []bool{true, false} {
			res, err := experiments.RunFig8(experiments.Fig8Opts{Seed: b.seed, Jobs: b.jobs, Shortcuts: sc})
			b.show("fig8", res, err)
		}
	}},
	{"table3", "Table III: fastDNAml-PVM", func(b *bench) {
		res, err := experiments.RunTable3(experiments.Table3Opts{Seed: b.seed})
		b.show("table3", res, err)
	}},
	{"outage", "§V-C: IPOP kill/restart no-routability window", func(b *bench) {
		res, err := experiments.RunOutage(experiments.OutageOpts{Seed: b.seed})
		b.show("outage", res, err)
	}},
	{"virt", "§V-D1: virtualization overhead", func(b *bench) {
		b.show("virt", experiments.RunVirtOverhead(b.seed), nil)
	}},
	{"resilience", "Resilience: NAT rebinding, churn, live migration", func(b *bench) {
		natRes, err := experiments.RunNATRebind(b.seed, 3)
		b.show("nat-rebind", natRes, err)
		b.show("churn", experiments.RunChurn(b.seed), nil)
		migRes, err := experiments.RunLiveMigration(b.seed)
		b.show("live-migration", migRes, err)
	}},
	{"faults", "Fault injection: migration window, partition repair, correlated churn", func(b *bench) {
		mo, err := experiments.RunMigrationOutage(experiments.FaultOpts{Seed: b.seed})
		b.show("migration-outage", mo, err)
		ph, err := experiments.RunPartitionHeal(experiments.FaultOpts{Seed: b.seed})
		b.show("partition-heal", ph, err)
		cc, err := experiments.RunCorrelatedChurn(experiments.FaultOpts{Seed: b.seed})
		b.show("correlated-churn", cc, err)
	}},
	{"schedulers", "Middleware comparison: PBS vs Condor", func(b *bench) {
		res, err := experiments.RunSchedulerComparison(b.seed, b.jobs/2)
		b.show("schedulers", res, err)
	}},
	{"ablations", "Design ablations", func(b *bench) {
		ao := experiments.AblationOpts{Seed: b.seed}
		b.show("ablation-farcount", experiments.RunFarCountAblation(ao, nil), nil)
		b.show("ablation-threshold", experiments.RunThresholdAblation(ao, nil), nil)
		b.show("ablation-uriorder", experiments.RunURIOrderAblation(ao, 5), nil)
		b.show("ablation-ringsize", experiments.RunRingSizeAblation(ao, nil, 5), nil)
		ta, err := experiments.RunTransportAblation(ao)
		b.show("ablation-transport", ta, err)
	}},
	{"nat", "NAT traversal: pairwise connectivity matrix, all-symmetric ring", runNAT},
	{"gray", "Gray failures: fixed vs adaptive detector survivability", runGray},
	{"scale", "Scale harness: 1k-20k-node overlay, routing hot path", runScale},
}

// names returns the registry's -run names in order.
func names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// run is the whole command: it parses args, runs the selected experiments
// in registry order and returns the exit status — 2 for a usage error, 1
// if any experiment failed (the remaining ones still run), 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	b := &bench{stdout: stdout, stderr: stderr, narrate: stdout}
	fs := flag.NewFlagSet("wow-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sel := fs.String("run", "all", "comma-separated experiments: "+strings.Join(names(), ","))
	fs.Int64Var(&b.seed, "seed", 1, "simulation seed")
	fs.IntVar(&b.trials, "trials", 20, "trials per join scenario (paper: 100)")
	fs.IntVar(&b.jobs, "jobs", 1000, "MEME jobs for fig8 (paper: 4000)")
	fs.IntVar(&b.nodes, "nodes", 2000, "overlay size for the scale/nat harnesses (1000-20000) and, only when given, the gray harness (default 32)")
	fs.IntVar(&b.packets, "packets", 2000, "routed packets measured by the scale harness")
	fs.IntVar(&b.shards, "shards", 0, "scale/nat/gray harnesses: run on this many event shards (0/1 = single queue)")
	fs.IntVar(&b.workers, "workers", 0, "scale/nat/gray harnesses: worker goroutines for sharded runs (0 = min(shards, GOMAXPROCS))")
	fs.IntVar(&b.batch, "batch", 0, "scale/nat harnesses: batched-bootstrap batch size (0 = staggered joins, or 256/64 when -shards > 1)")
	fs.Float64Var(&b.settle, "settle", 0, "scale/nat harnesses: convergence settle time in virtual seconds (0 = default)")
	fs.Float64Var(&b.wan, "wan", 0, "scale/nat harnesses: one-way inter-site latency in ms for batched builds (0 = default; also the shard lookahead)")
	paperScale := fs.Bool("paper-scale", false, "use the paper's full trial counts (slower)")
	fs.BoolVar(&b.jsonOut, "json", false, "emit one JSON object per experiment on stdout")
	fs.Uint64Var(&b.traceN, "trace", 0, "gray harness: sample 1-in-N originations for hop-by-hop route tracing (0 = off); records stream as trace.hop/trace.route JSONL envelopes in -json mode")
	fs.Float64Var(&b.traceHealth, "trace-health", 0, "gray harness: per-node health.node snapshot period in virtual seconds (0 = off; needs -trace)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the selected experiments to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The bench-wide -nodes default (2000) is sized for the scale harness;
	// gray's own default is 32, so it honors -nodes only when passed.
	fs.Visit(func(f *flag.Flag) { b.nodesSet = b.nodesSet || f.Name == "nodes" })
	if *paperScale {
		b.trials, b.jobs = 100, 4000
	}
	// In JSON mode stdout carries only JSON objects; narration goes to
	// stderr so the stream stays machine-consumable.
	if b.jsonOut {
		b.narrate = stderr
	}

	want := map[string]bool{}
	for _, s := range strings.Split(*sel, ",") {
		name := strings.TrimSpace(s)
		if name != "all" && !slices.Contains(names(), name) {
			fmt.Fprintf(stderr, "wow-bench: unknown experiment %q (see -run in -help)\n", name)
			return 2
		}
		want[name] = true
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "wow-bench: %v\n", err)
		return 2
	}
	for _, e := range registry {
		if !want["all"] && !want[e.name] {
			continue
		}
		fmt.Fprintf(b.narrate, "==== %s ====\n", e.title)
		start := time.Now()
		e.run(b)
		fmt.Fprintf(b.narrate, "(wall %.1fs)\n\n", time.Since(start).Seconds())
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(stderr, "wow-bench: %v\n", err)
		b.failed = true
	}
	if b.failed {
		return 1
	}
	return 0
}

// emit writes one JSONL envelope {experiment, seed, ...extra, data} to
// stdout; every summary, series row and trace record goes through it. A nil
// data leaves the key out (the error envelope).
func (b *bench) emit(name string, extra map[string]any, data any) {
	env := map[string]any{"experiment": name, "seed": b.seed}
	for k, v := range extra {
		env[k] = v
	}
	if data != nil {
		env["data"] = data
	}
	line, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(b.stderr, "wow-bench: marshal %s: %v\n", name, err)
		b.failed = true
		return
	}
	fmt.Fprintln(b.stdout, string(line))
}

// show prints an experiment result — its String() rendering, or one JSON
// envelope in -json mode — or reports its error and marks the run failed
// without aborting the remaining experiments.
func (b *bench) show(name string, v any, err error) {
	switch {
	case err != nil:
		fmt.Fprintf(b.stderr, "wow-bench: %v\n", err)
		b.failed = true
		if b.jsonOut {
			b.emit(name, map[string]any{"error": err.Error()}, nil)
		}
	case b.jsonOut:
		b.emit(name, nil, v)
	default:
		fmt.Fprintln(b.stdout, v)
	}
}

// series reports one sample of a running build: a <name> JSONL row in
// -json mode, the narrated progress line otherwise.
func (b *bench) series(name string, data any, format string, args ...any) {
	if b.jsonOut {
		b.emit(name, nil, data)
		return
	}
	fmt.Fprintf(b.narrate, format, args...)
}

func runJoin(b *bench) {
	b.show("join", experiments.RunJoinStats(experiments.JoinOpts{Seed: b.seed, Trials: b.trials * 3}), nil)
}

func runFig4(b *bench) {
	res := experiments.RunFig4(experiments.JoinOpts{Seed: b.seed, Trials: b.trials})
	b.show("fig4", res, nil)
	if !b.jsonOut {
		return
	}
	for _, p := range res.Profiles {
		// One fig4.series row per echo sequence number; rtt_ms is null
		// when every trial dropped that echo (NaN internally).
		for i := range p.LossPct {
			var rtt any
			if i < len(p.RTTms) && !math.IsNaN(p.RTTms[i]) {
				rtt = p.RTTms[i]
			}
			b.emit("fig4.series", nil, map[string]any{
				"scenario": p.Scenario.Name, "seq": i + 1,
				"loss_pct": p.LossPct[i], "rtt_ms": rtt,
			})
		}
	}
}

func runFig5(b *bench) {
	p := experiments.RunJoinProfile(experiments.JoinOpts{Seed: b.seed, Trials: b.trials, Pings: 50},
		experiments.JoinScenario{Name: "UFL-NWU", ASite: "ufl.edu", BSite: "northwestern.edu"})
	if b.jsonOut {
		b.show("fig5", p, nil)
		return
	}
	for i := 0; i < 50; i++ {
		fmt.Fprintf(b.stdout, "  seq %2d: loss %5.1f%%  rtt %7.1f ms\n", i+1, p.LossPct[i], p.RTTms[i])
	}
	r, s := p.Regimes()
	fmt.Fprintf(b.stdout, "  regime 1 ends ~seq %d (routable); regime 3 begins ~seq %d (shortcut)\n", r, s)
}

func runFig6(b *bench) {
	res, err := experiments.RunFig6(experiments.Fig6Opts{Seed: b.seed})
	b.show("fig6", res, err)
	if err != nil || !b.jsonOut {
		return
	}
	// One fig6.series row per 5 s progress sample: seconds since transfer
	// start, bytes on the client's disk.
	for i := 0; i < res.Progress.Len(); i++ {
		t, v := res.Progress.At(i)
		b.emit("fig6.series", nil, map[string]any{"t_sec": t, "bytes": v})
	}
}

func runNAT(b *bench) {
	m, err := experiments.RunNATMatrix(b.seed)
	b.show("nat-matrix", m, err)
	opts := experiments.SymRingOpts{Seed: b.seed}
	if b.shards > 1 || b.batch > 0 {
		// The batched fleet build takes the same sizing flags as the scale
		// harness and streams a nat.series row per batch (tunnels formed,
		// upgrade probes, routability over build time).
		opts.Nodes = b.nodes
		opts.Shards = b.shards
		opts.Workers = b.workers
		opts.BatchJoin = b.batch
		opts.Settle = experiments.SettleSeconds(b.settle)
		opts.WANLatency = experiments.Milliseconds(b.wan)
		opts.OnProgress = func(p experiments.NATPoint) {
			b.series("nat.series", p,
				"  t=%6.0fs virt  %6d joined  routable %5.1f%%  %6d tunnels  %8d upgrade probes  %12d events\n",
				p.VirtualSec, p.Joined, p.RoutableFrac*100, p.Tunnels, p.UpgradeProbes, p.Events)
		}
	}
	sr, err := experiments.RunSymmetricRing(opts)
	b.show("symmetric-ring", sr, err)
}

func runGray(b *bench) {
	opts := experiments.GrayOpts{
		Seed: b.seed, Shards: b.shards, Workers: b.workers,
		TraceSample: b.traceN,
		TraceHealth: experiments.SettleSeconds(b.traceHealth),
	}
	if b.nodesSet {
		opts.Nodes = b.nodes
	}
	opts.OnProgress = func(p experiments.GrayPoint) {
		b.series("gray.series", p,
			"  [%8s] w%d t=%6.0fs virt  routable %5.1f%%  false %4d  confirmed %3d  deaths %3d  detect %6.0fms  %10d events\n",
			p.Detector, p.Window, p.VirtualSec, p.RoutableFrac*100,
			p.FalseSuspects, p.Confirmed, p.Deaths, p.MeanDetectMs, p.Events)
	}
	res, err := experiments.RunGrayCompare(opts)
	if err == nil && b.traceN > 0 {
		b.emitTrace(res.Fixed)
		b.emitTrace(res.Adaptive)
	}
	b.show("gray", res, err)
}

// emitTrace streams one run's flight-recorder records: one JSONL envelope
// per record in -json mode (experiment names trace.hop, trace.route and
// health.node; detector tags which run emitted it), a per-stream count line
// otherwise.
func (b *bench) emitTrace(r *experiments.GrayResult) {
	if b.jsonOut {
		extra := map[string]any{"detector": r.Detector}
		for i := range r.Trace {
			b.emit(r.Trace[i].EnvelopeName(), extra, &r.Trace[i])
		}
		return
	}
	counts := map[string]int{}
	for _, rec := range r.Trace {
		counts[rec.Stream]++
	}
	fmt.Fprintf(b.narrate, "  [%8s] flight recorder: %d hop, %d route, %d health records\n",
		r.Detector, counts[trace.StreamHop], counts[trace.StreamRoute], counts[trace.StreamHealth])
}

func runScale(b *bench) {
	opts := experiments.ScaleOpts{
		Seed: b.seed, Nodes: b.nodes, Packets: b.packets,
		Shards: b.shards, Workers: b.workers, BatchJoin: b.batch,
		Settle:     experiments.SettleSeconds(b.settle),
		WANLatency: experiments.Milliseconds(b.wan),
	}
	// Batched builds stream a joins/sec-over-build-time series: one
	// scale.series row per batch.
	opts.OnProgress = func(p experiments.ScalePoint) {
		b.series("scale.series", p, "  t=%6.0fs virt  %6d joined  %7.1f joins/s wall  %12d events\n",
			p.VirtualSec, p.Joined, p.JoinsPerSec, p.Events)
	}
	res, err := experiments.RunScale(opts)
	b.show("scale", res, err)
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
