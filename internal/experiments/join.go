// Package experiments implements every quantitative experiment of the
// paper's §V evaluation against the simulated Figure-1 testbed, one
// constructor per table or figure. Each returns a typed result with a
// String renderer; the benchmarks in bench_test.go and the wow-bench
// command drive them.
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"

	"wow/internal/brunet"
	"wow/internal/metrics"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/vm"
)

// JoinOpts parameterizes the node-join experiments of §V-B.
type JoinOpts struct {
	Seed int64
	// Trials per scenario; the paper ran 100 (Fig. 4) and 300 total
	// (abstract claim).
	Trials int
	// Pings per trial at one-second intervals; the paper sent 400.
	Pings int
	// Routers sizes the bootstrap overlay and PlanetLabHosts hosts it; zero
	// takes the testbed's defaults, the paper's 118 routers on 20 hosts.
	Routers, PlanetLabHosts int
	// Brunet overrides protocol constants (ablations); zero fields take
	// paper defaults.
	Brunet brunet.Config
}

func (o *JoinOpts) fillDefaults() {
	if o.Trials == 0 {
		o.Trials = 100
	}
	if o.Pings == 0 {
		o.Pings = 400
	}
}

// JoinScenario names a Figure 4 placement of the fixed node A and the
// joining node B.
type JoinScenario struct {
	Name         string
	ASite, BSite string
}

// Fig4Scenarios are the paper's three placements.
func Fig4Scenarios() []JoinScenario {
	return []JoinScenario{
		{Name: "UFL-UFL", ASite: "ufl.edu", BSite: "ufl.edu"},
		{Name: "UFL-NWU", ASite: "ufl.edu", BSite: "northwestern.edu"},
		{Name: "NWU-NWU", ASite: "northwestern.edu", BSite: "northwestern.edu"},
	}
}

// JoinProfile is the averaged per-sequence-number ping profile of one
// scenario — one curve of Figure 4 (both panels).
type JoinProfile struct {
	Scenario JoinScenario
	Trials   int
	// RTTms[i] is the mean round-trip of successful echoes with
	// sequence number i+1; NaN when every trial dropped it.
	RTTms []float64
	// LossPct[i] is the share of trials in which echo i+1 got no reply.
	LossPct []float64
	// RoutableAt / ShortcutAt are per-trial seconds from B's start until
	// the first echo reply and until the A-B shortcut connection
	// existed (NaN if never within the trial window).
	RoutableAt []float64
	ShortcutAt []float64
}

// MarshalJSON renders the profile with NaN entries as JSON null —
// encoding/json rejects NaN outright, which would otherwise make every
// profile with a fully-dropped sequence number unserializable.
func (p *JoinProfile) MarshalJSON() ([]byte, error) {
	type alias struct {
		Scenario   JoinScenario
		Trials     int
		RTTms      []*float64
		LossPct    []float64
		RoutableAt []*float64
		ShortcutAt []*float64
	}
	return json.Marshal(alias{
		Scenario:   p.Scenario,
		Trials:     p.Trials,
		RTTms:      nanToNull(p.RTTms),
		LossPct:    p.LossPct,
		RoutableAt: nanToNull(p.RoutableAt),
		ShortcutAt: nanToNull(p.ShortcutAt),
	})
}

// nanToNull maps each value to a pointer, with NaN becoming nil (JSON null).
func nanToNull(xs []float64) []*float64 {
	out := make([]*float64, len(xs))
	for i := range xs {
		if !math.IsNaN(xs[i]) {
			v := xs[i]
			out[i] = &v
		}
	}
	return out
}

// Regimes splits the profile into the paper's three Figure 5 regimes and
// returns their boundaries in sequence numbers: the last sequence number
// before B is typically routable, and the sequence number by which the
// median trial has a shortcut.
func (p *JoinProfile) Regimes() (routableSeq, shortcutSeq int) {
	r := metrics.Percentile(dropNaN(p.RoutableAt), 50)
	s := metrics.Percentile(dropNaN(p.ShortcutAt), 50)
	if !math.IsNaN(r) {
		routableSeq = int(r)
	}
	if !math.IsNaN(s) {
		shortcutSeq = int(s)
	}
	return routableSeq, shortcutSeq
}

// String renders the profile as a compact table of 20-ping buckets.
func (p *JoinProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 profile %s (%d trials)\n", p.Scenario.Name, p.Trials)
	fmt.Fprintf(&b, "%8s %12s %10s\n", "seq", "avg RTT(ms)", "loss(%)")
	for lo := 0; lo < len(p.RTTms); lo += 20 {
		hi := lo + 20
		if hi > len(p.RTTms) {
			hi = len(p.RTTms)
		}
		var rtts, losses []float64
		for i := lo; i < hi; i++ {
			if !math.IsNaN(p.RTTms[i]) {
				rtts = append(rtts, p.RTTms[i])
			}
			losses = append(losses, p.LossPct[i])
		}
		rtt := math.NaN()
		if len(rtts) > 0 {
			rtt = metrics.Summarize(rtts).Mean
		}
		fmt.Fprintf(&b, "%3d-%-4d %12.1f %10.1f\n", lo+1, hi, rtt, metrics.Summarize(losses).Mean)
	}
	rs, ss := p.Regimes()
	fmt.Fprintf(&b, "median routable at seq ~%d, median shortcut at seq ~%d\n", rs, ss)
	return b.String()
}

// joinTestbed builds the router-only overlay plus the fixed target node A.
func joinTestbed(opts JoinOpts, aSite string, shortcuts bool) (*testbed.Testbed, *vm.VM) {
	tb := testbed.Build(testbed.Config{
		Seed:           opts.Seed,
		Shortcuts:      shortcuts,
		PlanetLabHosts: opts.PlanetLabHosts,
		Routers:        opts.Routers,
		Brunet:         opts.Brunet,
		SkipVMs:        true,
		SettleTime:     5 * sim.Minute,
	})
	a := tb.NewVM(aSite, 1)
	tb.Sim.RunFor(2 * sim.Minute)
	return tb, a
}

// RunJoinProfile reproduces one Figure 4 curve: Trials times, a fresh
// node B joins at BSite and sends Pings ICMP echoes at 1-second intervals
// to the long-running node A at ASite, starting the moment its IPOP
// process launches.
func RunJoinProfile(opts JoinOpts, sc JoinScenario) *JoinProfile {
	opts.fillDefaults()
	tb, a := joinTestbed(opts, sc.ASite, true)

	p := &JoinProfile{
		Scenario:   sc,
		Trials:     opts.Trials,
		RTTms:      make([]float64, opts.Pings),
		LossPct:    make([]float64, opts.Pings),
		RoutableAt: nil,
		ShortcutAt: nil,
	}
	rttSum := make([]float64, opts.Pings)
	rttN := make([]int, opts.Pings)
	lost := make([]int, opts.Pings)

	for trial := 0; trial < opts.Trials; trial++ {
		b := tb.NewVM(sc.BSite, 1)
		start := tb.Sim.Now()
		routable := math.NaN()
		shortcut := math.NaN()
		aAddr := a.Node().Addr()

		for i := 0; i < opts.Pings; i++ {
			i := i
			tb.Sim.At(start.Add(sim.Duration(i+1)*sim.Second), func() {
				b.Stack().Ping(a.IP(), 64, 2*sim.Second, func(ok bool, rtt sim.Duration) {
					if !ok {
						lost[i]++
						return
					}
					rttSum[i] += rtt.Seconds() * 1000
					rttN[i]++
					if math.IsNaN(routable) {
						routable = tb.Sim.Now().Sub(start).Seconds()
					}
				})
			})
		}
		// Watch for the shortcut connection forming on either side.
		watch := tb.Sim.Tick(sim.Second, 0, func() {
			if !math.IsNaN(shortcut) {
				return
			}
			c := b.Node().Overlay().ConnectionTo(aAddr)
			if c != nil && c.Has(brunet.Shortcut) {
				shortcut = tb.Sim.Now().Sub(start).Seconds()
			}
		})
		tb.Sim.RunFor(sim.Duration(opts.Pings+3) * sim.Second)
		watch.Stop()
		// Depart gracefully between trials so each join measures a
		// clean ring rather than the previous trial's stale state
		// (ungraceful-death dynamics are measured separately by the
		// migration experiments).
		b.Decommission()
		tb.Sim.RunFor(30 * sim.Second)

		p.RoutableAt = append(p.RoutableAt, routable)
		p.ShortcutAt = append(p.ShortcutAt, shortcut)
	}

	for i := 0; i < opts.Pings; i++ {
		if rttN[i] > 0 {
			p.RTTms[i] = rttSum[i] / float64(rttN[i])
		} else {
			p.RTTms[i] = math.NaN()
		}
		p.LossPct[i] = 100 * float64(lost[i]) / float64(opts.Trials)
	}
	return p
}

// CSV renders the profile as "seq,rtt_ms,loss_pct" lines, the series a
// plotting tool needs to redraw the Figure 4 curves.
func (p *JoinProfile) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq,rtt_ms,loss_pct\n")
	for i := range p.RTTms {
		fmt.Fprintf(&b, "%d,%.2f,%.2f\n", i+1, p.RTTms[i], p.LossPct[i])
	}
	return b.String()
}

// Fig4Result bundles the three scenario profiles.
type Fig4Result struct {
	Profiles []*JoinProfile
}

// RunFig4 reproduces both panels of Figure 4 (and, via the first 50
// sequence numbers of the UFL-NWU profile, Figure 5). The three scenarios
// are independent simulations and run on parallel goroutines, one
// deterministic Simulator each.
func RunFig4(opts JoinOpts) *Fig4Result {
	scenarios := Fig4Scenarios()
	res := &Fig4Result{Profiles: make([]*JoinProfile, len(scenarios))}
	var wg sync.WaitGroup
	for i, sc := range scenarios {
		i, sc := i, sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Profiles[i] = RunJoinProfile(opts, sc)
		}()
	}
	wg.Wait()
	return res
}

// String renders all profiles.
func (r *Fig4Result) String() string {
	var b strings.Builder
	for _, p := range r.Profiles {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// JoinStats is the abstract's join-latency claim: over 300 trials, 90% of
// nodes self-configured P2P routes within 10 seconds and more than 99%
// established direct connections within 200 seconds.
type JoinStats struct {
	Trials           int
	RoutableAt       []float64 // seconds, NaN = never
	ShortcutAt       []float64
	P90Routable      float64
	PctRoutable10s   float64
	PctShortcut200s  float64
	MedianRoutable   float64
	MedianShortcutAt float64
}

// RunJoinStats spreads Trials joins across the six compute domains,
// pinging a fixed UFL node, and summarizes routability and
// direct-connection latencies. The six per-domain simulations run on
// parallel goroutines.
func RunJoinStats(opts JoinOpts) *JoinStats {
	opts.fillDefaults()
	sites := testbed.ComputeSites
	st := &JoinStats{Trials: opts.Trials}
	perSite := opts.Trials / len(sites)
	if perSite == 0 {
		perSite = 1
	}
	profiles := make([]*JoinProfile, len(sites))
	var wg sync.WaitGroup
	for i, site := range sites {
		i, site := i, site
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts
			o.Seed = opts.Seed + int64(i)
			o.Trials = perSite
			o.Pings = 260 // enough to observe the 200s shortcut bound
			profiles[i] = RunJoinProfile(o, JoinScenario{Name: "join-" + site, ASite: "ufl.edu", BSite: site})
		}()
	}
	wg.Wait()
	for _, p := range profiles {
		st.RoutableAt = append(st.RoutableAt, p.RoutableAt...)
		st.ShortcutAt = append(st.ShortcutAt, p.ShortcutAt...)
	}
	st.Trials = len(st.RoutableAt)
	st.P90Routable = metrics.Percentile(dropNaN(st.RoutableAt), 90)
	st.PctRoutable10s = pctWithin(st.RoutableAt, 10)
	st.PctShortcut200s = pctWithin(st.ShortcutAt, 200)
	st.MedianRoutable = metrics.Percentile(dropNaN(st.RoutableAt), 50)
	st.MedianShortcutAt = metrics.Percentile(dropNaN(st.ShortcutAt), 50)
	return st
}

func dropNaN(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

func pctWithin(xs []float64, bound float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if !math.IsNaN(x) && x <= bound {
			n++
		}
	}
	return 100 * float64(n) / float64(len(xs))
}

// String renders the claim check.
func (s *JoinStats) String() string {
	return fmt.Sprintf(
		"Join latency over %d trials:\n"+
			"  routable within 10s: %.1f%% (paper: 90%%); P90 = %.1fs, median = %.1fs\n"+
			"  direct connection within 200s: %.1f%% (paper: >99%%); median = %.1fs\n",
		s.Trials, s.PctRoutable10s, s.P90Routable, s.MedianRoutable,
		s.PctShortcut200s, s.MedianShortcutAt)
}
