package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// aaRuns is how many runs of each workload make one A/A set: as many as
// the driver takes a median and quartiles over.
const aaRuns = 10

// runAA measures the benchmark against itself: `sets` sets of aaRuns runs
// of every workload on one build, each run a fresh process with its own
// seed (base seed + run index, the same seeds in every set). For every
// end-to-end metric it prints the widest spread inside a set
// (interquartile range over median, as Python's statistics.quantiles(n=4)
// gives it) and the largest disagreement between two sets' medians, both
// against the metric's bound. It returns the process exit code: 1 if any
// exceeds it.
func runAA(sets int, o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: aa:", err)
		return 1
	}
	// values[workload][metric][set] is that set's run values.
	values := make(map[string]map[string][][]float64)
	for _, w := range workloadDefs {
		values[w.name] = make(map[string][][]float64)
		for _, m := range endToEnd {
			values[w.name][m.name] = make([][]float64, sets)
		}
	}
	for set := 0; set < sets; set++ {
		for i := 0; i < aaRuns; i++ {
			for _, w := range workloadDefs {
				seed := o.seed + int64(i)
				t0 := time.Now()
				sum, err := child(exe, w.name, seed, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: aa: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				for _, m := range endToEnd {
					values[w.name][m.name][set] = append(values[w.name][m.name][set], sum.Metrics[m.name].Value)
				}
				fmt.Fprintf(os.Stderr, "bench: aa: set %d run %d %s seed %d wall_s %.3f, took %.1fs\n", set, i, w.name, seed, sum.Metrics["wall_s"].Value, time.Since(t0).Seconds())
			}
		}
	}

	failed := false
	fmt.Printf("%-13s %-20s %-7s %-9s %-11s %s\n", "workload", "metric", "bound", "spread", "medians", "verdict")
	for _, w := range workloadDefs {
		for _, m := range endToEnd {
			var worstSpread float64
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, vs := range values[w.name][m.name] {
				med := median(vs)
				lo, hi = math.Min(lo, med), math.Max(hi, med)
				if s := iqrShare(vs); s > worstSpread {
					worstSpread = s
				}
			}
			disagree := ratio(hi-lo, lo)
			verdict := "ok"
			if disagree > m.bound || worstSpread > m.bound {
				verdict = "EXCEEDS"
				failed = true
			}
			fmt.Printf("%-13s %-20s %-7.4g %-9.4f %-11.4f %s\n", w.name, m.name, m.bound, worstSpread, disagree, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// child runs one untraced run in a fresh process and parses its summary.
func child(exe, workload string, seed int64, o options) (*summary, error) {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds)}
	if o.reps > 0 {
		args = append(args, "-reps", fmt.Sprint(o.reps))
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		return nil, fmt.Errorf("parse summary: %w", err)
	}
	return &sum, nil
}
