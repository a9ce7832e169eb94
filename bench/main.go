// Command bench is the repository's benchmark: four long workloads over
// the WOW stack, each run as several in-process repetitions of identical
// simulated work, reporting calibrated median host times and exact counts.
// See README.md for the metrics, the workloads and why calibrated medians.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	reps       int
	cpuprofile string
	check      bool
	// small selects the 64-node smoke sizes and spanFile overrides where a
	// traced run writes its spans; only the tests set them.
	small    bool
	spanFile string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: ring_build, ring_route, sharded_ring or wow_transfer")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs: the order in which the routed pairs are sent")
	flag.Float64Var(&o.seconds, "seconds", 20, "host-time budget of the run: repetitions are added until the next would overrun it, never fewer than the workload's minimum")
	flag.IntVar(&trace, "trace", 0, "1 records spans, writes them to .bench_build/trace-<workload>-<seed>.jsonl and prints the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&o.reps, "reps", 0, "fix the repetition count (0 sizes it from -seconds)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.BoolVar(&o.check, "check", true, "verify outputs: counts identical across repetitions, rings fully routable, transfers byte-complete")
	aa := flag.Int("aa", 0, "A/A mode: run this many sets of ten runs of all four workloads and compare them against the bounds")
	flag.Parse()
	o.trace = trace != 0

	if *aa > 0 {
		os.Exit(runAA(*aa, o))
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// env is the stamp every output row carries: without it a perf row does
// not count.
type env struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	Workers    int    `json:"workers"`
}

func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// workers is the goroutine count of the sharded engine: at most two, so a
// two-core box and a large one run the same configuration.
func workers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// row is one metric as printed before the final summary line.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples"`
	Env      env     `json:"env"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the run's last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and prints its metrics.
func run(o options, out *os.File) error {
	res, e, err := measure(o, runDrills)
	if err != nil {
		return err
	}
	defs, vals := endToEnd, res.e2e
	if o.trace {
		defs, vals = perLayer, res.layer
	}
	sum := summary{
		Correct:   res.identical && len(res.mid.wrong) == 0,
		Attempted: res.mid.attempted,
		Failed:    res.mid.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	enc := json.NewEncoder(out)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		samples := len(res.reps)
		if d.name == "op_ns_p50" || d.name == "harness.op_ns_p99" {
			samples = len(res.mid.opNs)
		}
		if err := enc.Encode(row{Workload: o.workload, Metric: d.name, Value: v, Unit: d.unit, Samples: samples, Env: e}); err != nil {
			return err
		}
		sum.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return enc.Encode(sum)
}

// round is what one pass of a run's loop measured. An untraced run makes
// one repetition a round. A traced run follows each traced repetition with
// an untraced one and, on sharded_ring, one on a single worker, so the
// comparative per-layer figures compare neighbours in time, as many of one
// kind as of the other.
type round struct {
	main, plain, oneWorker *rep
}

// measure runs the repetitions of one workload and aggregates them. A
// failed output check is an error: the caller exits non-zero. drills
// supplies the per-layer drill figures of a traced run (runDrills; tests
// run the drills once and hand every workload the same figures).
func measure(o options, drills func(*spanRec) (map[string]float64, error)) (*result, env, error) {
	start := time.Now()
	wd, ok := findWorkload(o.workload)
	if !ok {
		return nil, env{}, fmt.Errorf("unknown workload %q (want ring_build, ring_route, sharded_ring or wow_transfer)", o.workload)
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, env{}, fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, env{}, fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	cal, err := newCalib()
	if err != nil {
		return nil, env{}, err
	}
	var sp *spanRec
	if o.trace {
		sp = newSpanRec()
	}
	root := sp.begin("run")

	// A traced round is two or three repetitions and the run ends with the
	// drills, so it makes fewer rounds; its numbers carry no bound.
	minRounds, maxRounds := wd.minReps, wd.maxReps
	if o.trace {
		minRounds, maxRounds = 2, 3
	}
	if o.reps > 0 {
		minRounds, maxRounds = o.reps, o.reps
	}
	var rounds []round
	var longest time.Duration
	next := 0
	one := func(v variant, sp *spanRec) (*rep, error) {
		v.traced = sp != nil
		x, err := runRep(next, newScenario(o, v), sp, cal)
		if err != nil {
			return nil, err
		}
		next++
		fmt.Fprintf(os.Stderr, "bench: %s seed %d rep %d: setup %.3fs at slowness %.3f, wall %.3fs cpu %.3fs op p50 %.0fns at slowness %.3f (median call %.3f), events %.0f\n",
			o.workload, o.seed, x.id, x.setupS, x.setupSlow, x.wallS, x.cpuS, median(x.opNs), x.slow, x.slowMed, x.delta["sim.events"])
		return x, nil
	}
	for len(rounds) < maxRounds {
		if n := len(rounds); n >= minRounds && time.Since(start)+longest > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
		t0 := time.Now()
		var r round
		if r.main, err = one(variant{}, sp); err != nil {
			return nil, env{}, err
		}
		if o.trace {
			if r.plain, err = one(variant{}, nil); err != nil {
				return nil, env{}, err
			}
			if o.workload == "sharded_ring" && workers() > 1 {
				if r.oneWorker, err = one(variant{workers1: true}, sp); err != nil {
					return nil, env{}, err
				}
			}
		}
		if d := time.Since(t0); d > longest {
			longest = d
		}
		rounds = append(rounds, r)
	}
	reps := make([]*rep, len(rounds))
	for i, r := range rounds {
		reps[i] = r.main
	}
	res := aggregate(reps)
	diverged := checkIdentical(reps)
	res.identical = diverged == nil
	if o.check {
		if diverged != nil {
			return nil, env{}, diverged
		}
		if err := checkOutputs(o.workload, res.mid); err != nil {
			return nil, env{}, err
		}
	}
	if err := finite(res.e2e); err != nil {
		return nil, env{}, err
	}
	if o.trace {
		if err := traced(o.workload, res, rounds, sp, drills); err != nil {
			return nil, env{}, err
		}
		root.end()
		path := o.spanFile
		if path == "" {
			path = fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", o.workload, o.seed)
		}
		if err := sp.write(path); err != nil {
			return nil, env{}, err
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(sp.spans), path)
		if err := finite(res.layer); err != nil {
			return nil, env{}, err
		}
	}
	e := env{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: o.seed, Reps: len(reps), Workers: workers(),
	}
	return res, e, nil
}

// checkOutputs verifies a repetition's outputs: it made checked
// operations, and none of its outputs was wrong — every ring node routable
// (brunet.routable_frac is 1 on the ring workloads), every counted transfer
// byte-complete. Operations that were merely lost (a probe, a ping train)
// count against ok_frac and are reported, not failed here.
func checkOutputs(name string, x *rep) error {
	if x.attempted < 1 {
		return fmt.Errorf("%s: no checked operations", name)
	}
	if len(x.wrong) > 0 {
		return fmt.Errorf("%s: repetition %d: %d of %d checked operations failed; wrong outputs: %q", name, x.id, x.failed, x.attempted, x.wrong)
	}
	return nil
}
