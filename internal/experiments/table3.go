package experiments

import (
	"fmt"
	"strings"

	"wow/internal/middleware/pvm"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/workloads"
)

// Table3Opts parameterizes the fastDNAml-PVM experiment of §V-D2.
type Table3Opts struct {
	Seed int64
	// Workload shapes the phylogenetic inference run; zero takes the
	// paper's 50-taxa dataset.
	Workload workloads.FastDNAmlConfig
}

func (o *Table3Opts) fillDefaults() {
	if o.Workload.Taxa == 0 {
		o.Workload = workloads.DefaultFastDNAml()
	}
}

// Table3Result is the paper's Table III.
type Table3Result struct {
	// SeqNode002 / SeqNode034 are sequential execution wall times in
	// seconds (paper: 22272 and 45191).
	SeqNode002, SeqNode034 float64
	// Par15Shortcut, Par30NoShortcut, Par30Shortcut are parallel wall
	// times (paper: 2439, 2033, 1642).
	Par15Shortcut, Par30NoShortcut, Par30Shortcut float64
}

// Speedup computes parallel speedup with respect to node002's sequential
// time, as the paper reports.
func (r *Table3Result) Speedup(parallel float64) float64 {
	if parallel <= 0 {
		return 0
	}
	return r.SeqNode002 / parallel
}

// String renders Table III.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table III: fastDNAml-PVM execution times and speedups\n")
	fmt.Fprintf(&b, "  sequential node002: %8.0f s (paper: 22272)\n", r.SeqNode002)
	fmt.Fprintf(&b, "  sequential node034: %8.0f s (paper: 45191)\n", r.SeqNode034)
	fmt.Fprintf(&b, "  15 nodes, shortcuts:    %6.0f s  speedup %4.1f (paper: 2439, 9.1x)\n", r.Par15Shortcut, r.Speedup(r.Par15Shortcut))
	fmt.Fprintf(&b, "  30 nodes, no shortcuts: %6.0f s  speedup %4.1f (paper: 2033, 11.0x)\n", r.Par30NoShortcut, r.Speedup(r.Par30NoShortcut))
	fmt.Fprintf(&b, "  30 nodes, shortcuts:    %6.0f s  speedup %4.1f (paper: 1642, 13.6x)\n", r.Par30Shortcut, r.Speedup(r.Par30Shortcut))
	return b.String()
}

// runFastDNAmlParallel runs the workload over the first `workers` Table I
// compute nodes after the master (node002), returning wall seconds.
func runFastDNAmlParallel(opts Table3Opts, workers int, shortcuts bool) (float64, error) {
	tb := testbed.Build(testbed.Config{
		Seed:       opts.Seed,
		Shortcuts:  shortcuts,
		SettleTime: 5 * sim.Minute,
	})
	master := tb.VM("node002")
	m, err := pvm.NewMaster(master.Stack())
	if err != nil {
		return 0, fmt.Errorf("table3: %w", err)
	}
	defs := testbed.TableI()
	n := 0
	for _, def := range defs[1:] { // skip node002 (master)
		if n >= workers {
			break
		}
		if err := pvm.NewWorker(tb.VM(def.Name), master.IP()); err != nil {
			return 0, fmt.Errorf("table3: worker %s: %w", def.Name, err)
		}
		n++
	}
	tb.Sim.RunFor(2 * sim.Minute) // enrollment

	m.SetRoundBroadcast(opts.Workload.BroadcastBytes)
	var elapsed sim.Duration
	if err := m.Run(opts.Workload.Rounds(), func(d sim.Duration) { elapsed = d }); err != nil {
		return 0, fmt.Errorf("table3: %w", err)
	}
	waitFor(tb.Sim, 10*sim.Minute, 72*sim.Hour, func() bool { return elapsed != 0 })
	return elapsed.Seconds(), nil
}

// runFastDNAmlSequential executes the whole workload on one VM's CPU.
func runFastDNAmlSequential(opts Table3Opts, node string) float64 {
	tb := testbed.Build(testbed.Config{
		Seed:           opts.Seed,
		Shortcuts:      true,
		Routers:        24, // sequential runs need no wide overlay
		PlanetLabHosts: 6,
		SettleTime:     2 * sim.Minute,
	})
	v := tb.VM(node)
	start := tb.Sim.Now()
	var doneAt sim.Time
	v.Execute(opts.Workload.SequentialCPU(), func() { doneAt = tb.Sim.Now() })
	waitFor(tb.Sim, sim.Hour, 200*sim.Hour, func() bool { return doneAt != 0 })
	return doneAt.Sub(start).Seconds()
}

// RunTable3 reproduces Table III: sequential fastDNAml on the fastest-
// and slowest-hardware nodes, and PVM-parallel runs on 15 and 30 WOW
// nodes with and without shortcut connections. The five configurations
// are independent simulations and run on parallel goroutines, one
// deterministic Simulator each.
func RunTable3(opts Table3Opts) (*Table3Result, error) {
	opts.fillDefaults()
	res := &Table3Result{}
	legs := []struct {
		dst *float64
		run func() (float64, error)
	}{
		{&res.SeqNode002, func() (float64, error) { return runFastDNAmlSequential(opts, "node002"), nil }},
		{&res.SeqNode034, func() (float64, error) { return runFastDNAmlSequential(opts, "node034"), nil }},
		{&res.Par15Shortcut, func() (float64, error) { return runFastDNAmlParallel(opts, 15, true) }},
		{&res.Par30NoShortcut, func() (float64, error) { return runFastDNAmlParallel(opts, 30, false) }},
		{&res.Par30Shortcut, func() (float64, error) { return runFastDNAmlParallel(opts, 30, true) }},
	}
	err := parallel(len(legs), func(i int) (err error) {
		*legs[i].dst, err = legs[i].run()
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
