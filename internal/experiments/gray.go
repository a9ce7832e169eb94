package experiments

import (
	"fmt"
	"strings"
	"time"

	"wow/internal/brunet"
	"wow/internal/faults"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/trace"
)

// This file is the gray-failure survivability harness: a router-only
// overlay whose first quarter of sites degrades — sustained latency
// variance (JitterBurst) plus a duty-cycled uplink (LinkFlap) — while
// clean-site nodes are crashed outright. The harness runs the same
// scenario under the fixed-timeout and the adaptive (Jacobson/Karn)
// failure detectors and scores them against each other: detection latency
// for the real crashes, false suspicions on the merely-degraded links, and
// end-state routability. Everything is deterministic in (Seed, Shards) and
// worker-invariant: the gray faults are time-functional and the protocol
// jitter is node-local (Config.JitterSeed), so neither depends on which
// shard or goroutine executes an event.

// GrayOpts parameterizes RunGrayFailures. Zero fields take the defaults in
// fillDefaults.
type GrayOpts struct {
	Seed int64
	// Nodes is the overlay size (bare Brunet routers, no NAT/IPOP layers —
	// the detector and relay machinery under test lives in the overlay).
	Nodes int
	// Sites spreads hosts round-robin; the first quarter of sites is the
	// gray zone, the last site is the clean crash site.
	Sites int
	// Adaptive selects the detector: false = fixed PingTimeout deadlines,
	// true = srtt + rtoK·rttvar clamped to [rtoMin, rtoMax] (brunet).
	Adaptive bool
	// Windows and WindowLen shape the measurement phase: the gray faults
	// stay armed for Windows·WindowLen and one series sample is taken per
	// window.
	Windows   int
	WindowLen sim.Duration
	// Settle is the convergence time before faults arm.
	Settle sim.Duration
	// Kills is how many clean-site nodes are crashed (ungracefully)
	// during the fault phase, one per window starting at window 1.
	Kills int

	// TraceSample, when non-zero, arms the flight recorder: every node
	// samples 1-in-TraceSample of its originations for hop-by-hop route
	// tracing. Sampling is deterministic in (node address, origination
	// sequence), so the traced subset is identical across engines.
	TraceSample uint64
	// TraceHealth, when non-zero (and tracing is armed), emits one
	// health.node snapshot per node at this period. The ticker is
	// jitter-free and read-only: protocol outcomes are unchanged.
	TraceHealth sim.Duration

	// Shards is the engine's shard count. 0 runs on one shard like 1 does
	// and keeps the shard/worker provenance out of the result.
	Shards int
	// Workers bounds the sharded engine's goroutines; results never
	// depend on it.
	Workers int
	// OnProgress, when set, observes every window sample as it is taken.
	OnProgress func(GrayPoint)
}

func (o *GrayOpts) fillDefaults() {
	if o.Nodes == 0 {
		o.Nodes = 32
	}
	if o.Sites == 0 {
		o.Sites = 8
	}
	if o.Windows == 0 {
		o.Windows = 8
	}
	if o.WindowLen == 0 {
		o.WindowLen = 30 * sim.Second
	}
	if o.Settle == 0 {
		o.Settle = 3 * sim.Minute
	}
	if o.Kills == 0 {
		o.Kills = 3
	}
}

// The gray-failure scenario. grayWAN is the one-way inter-site delay (also
// the sharded engine's lookahead floor). grayJitterAmp is the gray zone's
// mean added one-way delay: per packet the added delay is uniform in
// [0, 2·grayJitterAmp). grayFlapPeriod/grayFlapUp duty-cycle the gray
// zone's uplink: up for grayFlapUp out of every grayFlapPeriod, dead for the
// remainder.
const (
	grayWAN        = 40 * sim.Millisecond
	grayJitterAmp  = 2 * sim.Second
	grayFlapPeriod = 25 * sim.Second
	grayFlapUp     = 19 * sim.Second
)

// grayConfig is the protocol schedule both detectors share: FastTestConfig
// link/repair constants (paper-default relinking would outlast the run)
// with shortcuts off and the node-local jitter RNG armed — the latter is
// what makes the run's outcome independent of engine sharding.
func grayConfig(seed int64, adaptive bool) brunet.Config {
	cfg := brunet.FastTestConfig()
	cfg.Shortcut = nil
	cfg.JitterSeed = seed*2 + 1
	cfg.AdaptiveRTO = adaptive
	return cfg
}

// GrayPoint is one per-window sample of a gray-failure run. The suspicion
// and death fields are deltas over the window; MeanDetectMs is the mean
// liveness.detect_ms of the window's death verdicts (0 when none).
type GrayPoint struct {
	Detector   string // "fixed" or "adaptive"
	Window     int
	VirtualSec float64
	WallSec    float64
	// RoutableFrac is the live-node routability at the window boundary
	// (crashed nodes excluded).
	RoutableFrac float64
	// FalseSuspects counts wrongly escalated liveness verdicts this
	// window: premature ping timeouts plus fast-probe suspicions cleared
	// by later traffic.
	FalseSuspects int64
	// Confirmed counts forwarded suspicions that ended in a death verdict.
	Confirmed int64
	// Deaths counts ping-timeout death verdicts.
	Deaths int64
	// MeanDetectMs is the mean silence time (ms) behind this window's
	// death verdicts.
	MeanDetectMs float64
	Events       uint64
}

// GrayKill records one scheduled crash and how long the overlay took to
// fully forget the victim (every surviving node's connection dropped).
type GrayKill struct {
	Node      string
	AtSec     float64
	DetectSec float64
}

// GrayResult summarizes one detector's gray-failure run.
type GrayResult struct {
	Seed     int64
	Detector string
	Adaptive bool
	Nodes    int
	Sites    int
	Windows  int
	Kills    []GrayKill

	// FinalRoutable is the surviving fleet's routability after cool-down.
	FinalRoutable float64
	// MeanDetectSec is the mean crash-to-forgotten latency over Kills.
	MeanDetectSec float64
	// FalseSuspects / Confirmed / Deaths are fleet totals over the fault
	// phase.
	FalseSuspects int64
	Confirmed     int64
	Deaths        int64
	EventsTotal   uint64
	WallSec       float64
	Timeline      string

	Shards  int `json:",omitempty"`
	Workers int `json:",omitempty"`
	Series  []GrayPoint

	// Trace holds the run's merged flight-recorder stream (empty unless
	// GrayOpts.TraceSample armed it). Excluded from the summary JSON —
	// wow-bench streams each record as its own JSONL envelope instead.
	Trace []trace.Record `json:"-"`
}

// String renders the run summary.
func (r *GrayResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Gray failures: %d nodes / %d sites, %s detector, seed %d\n",
		r.Nodes, r.Sites, r.Detector, r.Seed)
	if r.Shards > 0 {
		fmt.Fprintf(&b, "  parallel: %d shards x %d workers\n", r.Shards, r.Workers)
	}
	fmt.Fprintf(&b, "  crashes: %d, mean detection %.1f s\n", len(r.Kills), r.MeanDetectSec)
	fmt.Fprintf(&b, "  false suspicions: %d (confirmed: %d, deaths: %d)\n",
		r.FalseSuspects, r.Confirmed, r.Deaths)
	fmt.Fprintf(&b, "  final routability: %.1f%%\n", r.FinalRoutable*100)
	return b.String()
}

// grayCounters reads the fleet-wide liveness counters.
type grayCounters struct {
	falseSuspects int64 // premature_timeout + false_suspect
	confirmed     int64
	deaths        int64
	detectMs      int64
}

func readGrayCounters(nodes []*brunet.Node) grayCounters {
	var c grayCounters
	for _, n := range nodes {
		c.falseSuspects += n.Stats.Get("liveness.premature_timeout") + n.Stats.Get("liveness.false_suspect")
		c.confirmed += n.Stats.Get("liveness.suspect_confirmed")
		c.deaths += n.Stats.Get("ping.dead")
		c.detectMs += n.Stats.Get("liveness.detect_ms")
	}
	return c
}

// RunGrayFailures builds the overlay, degrades the gray zone for the whole
// fault phase, crashes clean-site nodes, and samples the detector's
// behavior per window. The run is deterministic in (Seed, Shards) and
// independent of Workers.
func RunGrayFailures(opts GrayOpts) (*GrayResult, error) {
	opts.fillDefaults()
	if opts.Kills >= opts.Windows {
		return nil, fmt.Errorf("gray: %d kills need at least %d windows", opts.Kills, opts.Kills+1)
	}

	f, err := newFabric("gray", opts.Seed, opts.Shards, opts.Workers, opts.Sites,
		phys.PathModel{OneWay: sim.Millisecond}, phys.PathModel{OneWay: grayWAN})
	if err != nil {
		return nil, err
	}
	defer f.close()
	s := f.timeline()

	cfg := grayConfig(opts.Seed, opts.Adaptive)
	detector := "fixed"
	if opts.Adaptive {
		detector = "adaptive"
	}
	nodes := make([]*brunet.Node, opts.Nodes)
	for i := range nodes {
		name := fmt.Sprintf("gray%03d", i)
		h := f.net.AddHost(name, f.site(i), f.net.Root(), phys.HostConfig{})
		nodes[i] = brunet.NewNode(h, brunet.AddrFromString(name), cfg)
	}
	var tracer *trace.Tracer
	if opts.TraceSample > 0 {
		tracer = f.armTrace(trace.Options{SampleN: opts.TraceSample, Health: opts.TraceHealth}, nodes)
	}

	t0 := time.Now()
	var plan joinPlan
	plan.staggered(opts.Nodes, 200*sim.Millisecond, 4, []int{0, 1})
	plan.settle(opts.Settle)
	if err := f.join(nodes, plan, nil); err != nil {
		return nil, err
	}
	cursor := plan.end

	// Arm the gray zone: jitter + flap over the first quarter of sites for
	// the whole fault phase. Both are time-functional rules, installed
	// before the fault phase runs — the shard-safe path.
	inj := faults.New(s, f.net)
	graySites := make([]string, 0, opts.Sites/4)
	for i := 0; i < (opts.Sites+3)/4; i++ {
		graySites = append(graySites, f.sites[i].Name)
	}
	phaseLen := sim.Duration(opts.Windows) * opts.WindowLen
	inj.Schedule(
		faults.JitterBurst{Scope: faults.AtSites(graySites...), Amp: grayJitterAmp,
			Start: 0, For: phaseLen, Seed: uint64(opts.Seed)},
		faults.LinkFlap{A: faults.AtSites(graySites...), Period: grayFlapPeriod,
			Up: grayFlapUp, Start: 0, For: phaseLen},
	)

	// Schedule the crashes: one clean-site victim per window, mid-window,
	// starting at window 1 (window 0 measures the degraded-but-alive
	// baseline). The Stop fires on the victim's own shard; the timeline
	// mark is a separate same-instant event on the injector's timeline.
	cleanSite := opts.Sites - 1
	var victims []*brunet.Node
	for i := cleanSite; i < opts.Nodes && len(victims) < opts.Kills; i += opts.Sites {
		victims = append(victims, nodes[i])
	}
	if len(victims) < opts.Kills {
		return nil, fmt.Errorf("gray: only %d clean-site victims for %d kills (need more Nodes)", len(victims), opts.Kills)
	}
	kills := make([]GrayKill, len(victims))
	for i, v := range victims {
		at := cursor.Add(sim.Duration(i+1)*opts.WindowLen + opts.WindowLen/2)
		kills[i] = GrayKill{Node: v.Addr().String(), AtSec: at.Seconds(), DetectSec: -1}
		v.Host().Sim().At(at, func() { v.Stop() })
		s.At(at, func() { inj.Note("crash", v.Addr().String()) })
	}
	isVictim := make(map[*brunet.Node]bool, len(victims))
	for _, v := range victims {
		isVictim[v] = true
	}
	// forgotten reports whether every surviving node has dropped its
	// connection to v.
	forgotten := func(v *brunet.Node) bool {
		for _, n := range nodes {
			if !isVictim[n] && n.ConnectionTo(v.Addr()) != nil {
				return false
			}
		}
		return true
	}
	routableFrac := func() float64 {
		routable, live := 0, 0
		for _, n := range nodes {
			if isVictim[n] {
				continue
			}
			live++
			if n.IsRoutable() {
				routable++
			}
		}
		return float64(routable) / float64(live)
	}

	res := &GrayResult{
		Seed:     opts.Seed,
		Detector: detector,
		Adaptive: opts.Adaptive,
		Nodes:    opts.Nodes,
		Sites:    opts.Sites,
		Windows:  opts.Windows,
		Kills:    kills,
	}
	if opts.Shards > 0 {
		res.Shards = f.eng.Shards()
		res.Workers = f.eng.Workers()
	}

	// The fault phase: run each window in 1s steps (tracking when each
	// victim is fully forgotten), sampling the fleet counters per window.
	prev := readGrayCounters(nodes)
	for w := 0; w < opts.Windows; w++ {
		steps := int(opts.WindowLen / sim.Second)
		for st := 0; st < steps; st++ {
			cursor = cursor.Add(sim.Second)
			f.runUntil(cursor)
			for i := range kills {
				if kills[i].DetectSec >= 0 || cursor.Seconds() <= kills[i].AtSec {
					continue
				}
				if forgotten(victims[i]) {
					kills[i].DetectSec = cursor.Seconds() - kills[i].AtSec
				}
			}
		}
		cur := readGrayCounters(nodes)
		p := GrayPoint{
			Detector:      detector,
			Window:        w,
			VirtualSec:    cursor.Seconds(),
			WallSec:       time.Since(t0).Seconds(),
			RoutableFrac:  routableFrac(),
			FalseSuspects: cur.falseSuspects - prev.falseSuspects,
			Confirmed:     cur.confirmed - prev.confirmed,
			Deaths:        cur.deaths - prev.deaths,
			Events:        f.processed(),
		}
		if d := cur.deaths - prev.deaths; d > 0 {
			p.MeanDetectMs = float64(cur.detectMs-prev.detectMs) / float64(d)
		}
		prev = cur
		res.Series = append(res.Series, p)
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	}

	// Cool down on a clean fabric (faults expired), keep resolving any
	// still-pending detections, then audit the end state.
	for st := 0; st < 90; st++ {
		cursor = cursor.Add(sim.Second)
		f.runUntil(cursor)
		for i := range kills {
			if kills[i].DetectSec < 0 && forgotten(victims[i]) {
				kills[i].DetectSec = cursor.Seconds() - kills[i].AtSec
			}
		}
	}
	total := readGrayCounters(nodes)
	res.FalseSuspects = total.falseSuspects
	res.Confirmed = total.confirmed
	res.Deaths = total.deaths
	res.FinalRoutable = routableFrac()
	res.EventsTotal = f.processed()
	res.Timeline = inj.TimelineString()
	res.WallSec = time.Since(t0).Seconds()
	detected := 0
	for _, k := range kills {
		if k.DetectSec >= 0 {
			res.MeanDetectSec += k.DetectSec
			detected++
		}
	}
	if detected > 0 {
		res.MeanDetectSec /= float64(detected)
	}
	if tracer != nil {
		res.Trace = tracer.Drain()
	}
	inj.Close()
	return res, nil
}

// GrayCompare pits the two detectors against the identical scenario.
type GrayCompare struct {
	Fixed    *GrayResult
	Adaptive *GrayResult
	// Dominates is the headline verdict: the adaptive detector found the
	// real crashes faster AND raised fewer false suspicions AND both
	// detectors ended fully routable.
	Dominates bool
}

// String renders both summaries and the verdict.
func (c *GrayCompare) String() string {
	var b strings.Builder
	b.WriteString(c.Fixed.String())
	b.WriteString(c.Adaptive.String())
	fmt.Fprintf(&b, "Verdict: adaptive detection %.1fs vs fixed %.1fs; false suspicions %d vs %d; dominates: %v\n",
		c.Adaptive.MeanDetectSec, c.Fixed.MeanDetectSec,
		c.Adaptive.FalseSuspects, c.Fixed.FalseSuspects, c.Dominates)
	return b.String()
}

// RunGrayCompare runs the gray-failure scenario under both detectors on
// the same seed and scores adaptive against fixed.
func RunGrayCompare(opts GrayOpts) (*GrayCompare, error) {
	opts.Adaptive = false
	fixed, err := RunGrayFailures(opts)
	if err != nil {
		return nil, err
	}
	opts.Adaptive = true
	adaptive, err := RunGrayFailures(opts)
	if err != nil {
		return nil, err
	}
	return &GrayCompare{
		Fixed:    fixed,
		Adaptive: adaptive,
		Dominates: adaptive.MeanDetectSec < fixed.MeanDetectSec &&
			adaptive.FalseSuspects < fixed.FalseSuspects &&
			fixed.FinalRoutable == 1 && adaptive.FinalRoutable == 1,
	}, nil
}
