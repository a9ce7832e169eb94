package experiments

import (
	"fmt"
	"strings"
	"sync"

	"wow/internal/metrics"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/workloads"
)

// Table2Opts parameterizes the bandwidth experiment of §V-B (Table II).
type Table2Opts struct {
	Seed int64
	// Sizes are the transferred file sizes; the paper used 695 MB, 50 MB
	// and 8 MB.
	Sizes []int64
	// Repeats per size; the paper ran 12 transfers total per cell.
	Repeats int
	// Routers / PlanetLabHosts size the bootstrap overlay; zero takes the
	// testbed's defaults (the paper's 118 routers on 20 hosts).
	Routers, PlanetLabHosts int
}

func (o *Table2Opts) fillDefaults() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int64{695 << 20, 50 << 20, 8 << 20}
	}
	if o.Repeats == 0 {
		o.Repeats = 4 // 4 × 3 sizes = 12 transfers per cell, as in the paper
	}
}

// Table2Cell is one Table II entry: mean and standard deviation of ttcp
// bandwidth in KB/s.
type Table2Cell struct {
	Scenario  string
	Shortcuts bool
	MeanKBs   float64
	StdKBs    float64
	Transfers int
}

// Table2Result is the full table.
type Table2Result struct {
	Cells []Table2Cell
}

// Cell looks up one entry.
func (r *Table2Result) Cell(scenario string, shortcuts bool) *Table2Cell {
	for i := range r.Cells {
		if r.Cells[i].Scenario == scenario && r.Cells[i].Shortcuts == shortcuts {
			return &r.Cells[i]
		}
	}
	return nil
}

// String renders the table in the paper's layout.
func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table II: ttcp bandwidth between WOW nodes (KB/s)\n")
	fmt.Fprintf(&b, "%-10s %22s %22s\n", "", "shortcuts enabled", "shortcuts disabled")
	fmt.Fprintf(&b, "%-10s %10s %11s %10s %11s\n", "scenario", "mean", "std", "mean", "std")
	for _, p := range table2Pairs {
		sc := p.scenario
		on := r.Cell(sc, true)
		off := r.Cell(sc, false)
		if on == nil || off == nil {
			continue
		}
		fmt.Fprintf(&b, "%-10s %10.0f %11.0f %10.0f %11.0f\n", sc, on.MeanKBs, on.StdKBs, off.MeanKBs, off.StdKBs)
	}
	return b.String()
}

// table2Pairs lists the scenarios with their (sender, receiver) Table I
// nodes in measurement order. The order is part of the experiment: both
// scenarios of a leg share one testbed, so the second one's warm-up and
// transfers run on an overlay the first has already aged.
var table2Pairs = []struct{ scenario, src, dst string }{
	{"UFL-UFL", "node003", "node004"},
	{"UFL-NWU", "node003", "node017"},
}

// RunTable2 reproduces Table II: repeated ttcp bulk transfers between WOW
// node pairs with the shortcut overlord enabled and disabled. The two
// overlay configurations are independent simulations and run on parallel
// goroutines.
func RunTable2(opts Table2Opts) (*Table2Result, error) {
	opts.fillDefaults()
	res := &Table2Result{}
	legs := make([][]Table2Cell, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for li, shortcuts := range []bool{true, false} {
		li, shortcuts := li, shortcuts
		wg.Add(1)
		go func() {
			defer wg.Done()
			legs[li], errs[li] = runTable2Leg(opts, shortcuts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, leg := range legs {
		res.Cells = append(res.Cells, leg...)
	}
	return res, nil
}

// runTable2Leg measures both scenarios under one shortcut setting.
func runTable2Leg(opts Table2Opts, shortcuts bool) ([]Table2Cell, error) {
	var cells []Table2Cell
	tb := testbed.Build(testbed.Config{
		Seed:           opts.Seed,
		Shortcuts:      shortcuts,
		Routers:        opts.Routers,
		PlanetLabHosts: opts.PlanetLabHosts,
		SettleTime:     5 * sim.Minute,
	})
	for _, p := range table2Pairs {
		src, dst := tb.VM(p.src), tb.VM(p.dst)
		if err := workloads.TTCPServe(dst.Stack()); err != nil {
			return nil, fmt.Errorf("table2: %w", err)
		}
		if shortcuts {
			// Measure the steady state with a formed shortcut, as the
			// paper's post-adaptation numbers do. UFL-UFL needs ~175 s:
			// the linker burns through the hairpin-blocked public URI
			// first (§V-B).
			warmPath(tb.Sim, src, dst, 5*sim.Minute)
		}
		var bws []float64
		for _, size := range opts.Sizes {
			for rep := 0; rep < opts.Repeats; rep++ {
				if r := runTTCP(tb.Sim, src, dst, size); r.Completed {
					bws = append(bws, r.BandwidthKBs())
				}
				tb.Sim.RunFor(10 * sim.Second)
			}
		}
		s := metrics.Summarize(bws)
		cells = append(cells, Table2Cell{
			Scenario:  p.scenario,
			Shortcuts: shortcuts,
			MeanKBs:   s.Mean,
			StdKBs:    s.Std,
			Transfers: s.N,
		})
	}
	return cells, nil
}
