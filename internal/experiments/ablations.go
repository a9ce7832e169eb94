package experiments

import (
	"fmt"
	"math"
	"strings"

	"wow/internal/brunet"
	"wow/internal/metrics"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/workloads"
)

// AblationOpts parameterizes design-choice sweeps.
type AblationOpts struct {
	Seed int64
	// Routers / PlanetLabHosts size the overlay; zero takes the testbed's
	// defaults (the paper's 118 routers on 20 hosts).
	Routers, PlanetLabHosts int
}

// FarCountPoint is one sample of the far-connection sweep.
type FarCountPoint struct {
	FarCount int
	// AvgHops is the mean overlay path length over sampled pairs.
	AvgHops float64
	// ConnsPerNode is the realized mean connection count (keepalive
	// cost, the tradeoff §IV-E discusses).
	ConnsPerNode float64
}

// FarCountResult sweeps k, the structured-far connection count.
type FarCountResult struct{ Points []FarCountPoint }

// String renders the sweep.
func (r *FarCountResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: structured-far connection count k vs routing hops\n")
	fmt.Fprintf(&b, "%6s %10s %14s\n", "k", "avg hops", "conns/node")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6d %10.2f %14.1f\n", p.FarCount, p.AvgHops, p.ConnsPerNode)
	}
	return b.String()
}

// RunFarCountAblation measures greedy-routing path length on the router
// overlay as k varies — the O((1/k)·log²n) tradeoff of §IV-A.
func RunFarCountAblation(opts AblationOpts, ks []int) *FarCountResult {
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16}
	}
	res := &FarCountResult{}
	for _, k := range ks {
		cfg := brunet.DefaultConfig()
		cfg.FarCount = k
		tb := testbed.Build(testbed.Config{
			Seed:           opts.Seed,
			Shortcuts:      false,
			Routers:        opts.Routers,
			PlanetLabHosts: opts.PlanetLabHosts,
			Brunet:         cfg,
			SkipVMs:        true,
			SettleTime:     10 * sim.Minute,
		})
		routers := tb.Routers()
		var before, sent int64
		for _, r := range routers {
			before += r.Overlay().Stats.Get("route.forwarded")
		}
		// Sample all-pairs-ish traffic: every router sends to every
		// 7th other router.
		for i, a := range routers {
			for j := (i + 1) % 7; j < len(routers); j += 7 {
				if i == j {
					continue
				}
				a.Overlay().SendTo(routers[j].Overlay().Addr(), brunet.DeliverExact,
					brunet.AppData{Proto: "probe", Size: 64})
				sent++
			}
		}
		tb.Sim.RunFor(30 * sim.Second)
		var after int64
		var conns int
		for _, r := range routers {
			after += r.Overlay().Stats.Get("route.forwarded")
			conns += len(r.Overlay().Connections())
		}
		res.Points = append(res.Points, FarCountPoint{
			FarCount:     k,
			AvgHops:      float64(after-before) / float64(sent),
			ConnsPerNode: float64(conns) / float64(len(routers)),
		})
	}
	return res
}

// ThresholdPoint is one sample of the shortcut-threshold sweep.
type ThresholdPoint struct {
	Threshold float64
	// AdaptSeconds is the time for a 1 packet/s flow to trigger a
	// shortcut (NaN if never).
	AdaptSeconds float64
	// CTMs counts shortcut connection attempts (setup churn).
	CTMs int64
}

// ThresholdResult sweeps the shortcut score threshold.
type ThresholdResult struct{ Points []ThresholdPoint }

// String renders the sweep.
func (r *ThresholdResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: shortcut score threshold vs adaptation latency\n")
	fmt.Fprintf(&b, "%10s %14s %8s\n", "threshold", "adapt (s)", "CTMs")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10.0f %14.1f %8d\n", p.Threshold, p.AdaptSeconds, p.CTMs)
	}
	return b.String()
}

// RunThresholdAblation measures how the §IV-E score threshold trades
// adaptation speed against connection churn for the paper's 1 packet/s
// ICMP workload.
func RunThresholdAblation(opts AblationOpts, thresholds []float64) *ThresholdResult {
	if len(thresholds) == 0 {
		thresholds = []float64{5, 15, 30, 60}
	}
	res := &ThresholdResult{}
	for _, th := range thresholds {
		cfg := brunet.DefaultConfig()
		cfg.Shortcut = brunet.DefaultShortcutConfig()
		cfg.Shortcut.Threshold = th
		tb := testbed.Build(testbed.Config{
			Seed:           opts.Seed,
			Shortcuts:      true,
			Routers:        opts.Routers,
			PlanetLabHosts: opts.PlanetLabHosts,
			Brunet:         cfg,
			SkipVMs:        true,
			SettleTime:     5 * sim.Minute,
		})
		a := tb.NewVM("ufl.edu", 1)
		b := tb.NewVM("northwestern.edu", 1)
		tb.Sim.RunFor(2 * sim.Minute)
		start := tb.Sim.Now()
		adapt := math.NaN()
		bAddr := b.Node().Addr()
		tick := tb.Sim.Tick(sim.Second, 0, func() {
			a.Stack().Ping(b.IP(), 64, 2*sim.Second, func(bool, sim.Duration) {})
			if math.IsNaN(adapt) {
				if c := a.Node().Overlay().ConnectionTo(bAddr); c != nil && c.Has(brunet.Shortcut) {
					adapt = tb.Sim.Now().Sub(start).Seconds()
				}
			}
		})
		tb.Sim.RunFor(10 * sim.Minute)
		tick.Stop()
		res.Points = append(res.Points, ThresholdPoint{
			Threshold:    th,
			AdaptSeconds: adapt,
			CTMs:         a.Node().Overlay().Stats.Get("shortcut.ctm") + b.Node().Overlay().Stats.Get("shortcut.ctm"),
		})
	}
	return res
}

// URIOrderResult compares linking-protocol URI trial orders for the
// UFL-UFL hairpin-blocked case behind Figure 5's regime 3.
type URIOrderResult struct {
	// PublicFirstSeconds is the median shortcut formation time with the
	// paper's order (NAT-learned URIs first): slow, because the campus
	// NAT drops hairpin traffic and the linker burns ~150 s there.
	PublicFirstSeconds float64
	// PrivateFirstSeconds flips the order: fast for same-site pairs.
	PrivateFirstSeconds float64
}

// String renders the comparison.
func (r *URIOrderResult) String() string {
	return fmt.Sprintf("Ablation: linking URI trial order (UFL-UFL shortcut formation)\n"+
		"  public-first (paper's IPOP): %6.0f s\n"+
		"  private-first:               %6.0f s\n",
		r.PublicFirstSeconds, r.PrivateFirstSeconds)
}

// RunURIOrderAblation measures UFL-UFL shortcut formation time under both
// URI orders.
func RunURIOrderAblation(opts AblationOpts, trials int) *URIOrderResult {
	if trials == 0 {
		trials = 5
	}
	measure := func(privateFirst bool) float64 {
		cfg := brunet.DefaultConfig()
		cfg.PrivateFirst = privateFirst
		jo := JoinOpts{
			Seed:           opts.Seed,
			Trials:         trials,
			Pings:          300,
			Routers:        opts.Routers,
			PlanetLabHosts: opts.PlanetLabHosts,
		}
		jo.Brunet = cfg
		p := RunJoinProfile(jo, JoinScenario{Name: "UFL-UFL", ASite: "ufl.edu", BSite: "ufl.edu"})
		_, shortcutSeq := p.Regimes()
		return float64(shortcutSeq)
	}
	return &URIOrderResult{
		PublicFirstSeconds:  measure(false),
		PrivateFirstSeconds: measure(true),
	}
}

// RingSizePoint is one sample of the overlay-size sweep.
type RingSizePoint struct {
	Routers int
	// MedianRoutable is the median seconds for a new node to become
	// routable.
	MedianRoutable float64
	// MedianShortcut is the median seconds to a direct connection.
	MedianShortcut float64
}

// RingSizeResult sweeps the bootstrap overlay size.
type RingSizeResult struct{ Points []RingSizePoint }

// String renders the sweep.
func (r *RingSizeResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: overlay size vs join latency\n")
	fmt.Fprintf(&b, "%8s %18s %18s\n", "routers", "median routable(s)", "median shortcut(s)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %18.1f %18.1f\n", p.Routers, p.MedianRoutable, p.MedianShortcut)
	}
	return b.String()
}

// RunRingSizeAblation measures join latency across overlay sizes,
// exercising the design's scalability claim (§VI).
func RunRingSizeAblation(opts AblationOpts, sizes []int, trials int) *RingSizeResult {
	if len(sizes) == 0 {
		sizes = []int{16, 50, 118, 250}
	}
	if trials == 0 {
		trials = 5
	}
	res := &RingSizeResult{}
	for _, n := range sizes {
		jo := JoinOpts{
			Seed:           opts.Seed,
			Trials:         trials,
			Pings:          260,
			Routers:        n,
			PlanetLabHosts: opts.PlanetLabHosts,
		}
		p := RunJoinProfile(jo, JoinScenario{Name: "join", ASite: "ufl.edu", BSite: "northwestern.edu"})
		rSeq, sSeq := p.Regimes()
		res.Points = append(res.Points, RingSizePoint{
			Routers:        n,
			MedianRoutable: float64(rSeq),
			MedianShortcut: float64(sSeq),
		})
	}
	return res
}

// TransportResult compares UDP and TCP link transports (§IV-A provides
// both): join latency and UFL-NWU tunnel bandwidth over an all-UDP vs an
// all-TCP overlay. The comparison explains the paper's transport choice
// ("in this paper, we have used UDP"): joins work over either, but TCP
// cannot hole-punch between two NATed/firewalled sites, so those pairs
// never get shortcut connections — their traffic stays on multi-hop
// chains of streams, where per-hop reliable delivery through loaded
// routers collapses throughput (the classic TCP-over-TCP problem).
type TransportResult struct {
	// JoinUDP / JoinTCP are median seconds to routability.
	JoinUDP, JoinTCP float64
	// BandwidthUDP / BandwidthTCP are UFL-NWU ttcp rates in KB/s
	// (UDP: hole-punched direct path; TCP: multi-hop, no punch).
	BandwidthUDP, BandwidthTCP float64
}

// String renders the comparison.
func (r *TransportResult) String() string {
	return fmt.Sprintf("Ablation: overlay link transport (UDP vs TCP, §IV-A)\n"+
		"  median join-to-routable: udp %4.1f s, tcp %4.1f s\n"+
		"  UFL-NWU tunnel bandwidth: udp %5.0f KB/s (hole-punched shortcut),\n"+
		"                            tcp %5.0f KB/s (no TCP hole punch -> multi-hop stream chain)\n",
		r.JoinUDP, r.JoinTCP, r.BandwidthUDP, r.BandwidthTCP)
}

// RunTransportAblation measures both transports on otherwise identical
// overlays.
func RunTransportAblation(opts AblationOpts) (*TransportResult, error) {
	res := &TransportResult{}
	for _, transport := range []string{"udp", "tcp"} {
		cfg := brunet.DefaultConfig()
		cfg.Transport = transport
		jo := JoinOpts{
			Seed:           opts.Seed,
			Trials:         5,
			Pings:          120,
			Routers:        opts.Routers,
			PlanetLabHosts: opts.PlanetLabHosts,
			Brunet:         cfg,
		}
		p := RunJoinProfile(jo, JoinScenario{Name: "transport-" + transport, ASite: "ufl.edu", BSite: "northwestern.edu"})
		join := metrics.Percentile(dropNaN(p.RoutableAt), 50)

		tb := testbed.Build(testbed.Config{
			Seed: opts.Seed, Shortcuts: true,
			Routers: opts.Routers, PlanetLabHosts: opts.PlanetLabHosts,
			Brunet: cfg, SettleTime: 5 * sim.Minute,
		})
		src, dst := tb.VM("node003"), tb.VM("node017")
		if err := workloads.TTCPServe(dst.Stack()); err != nil {
			return nil, fmt.Errorf("transport ablation: %w", err)
		}
		warmPath(tb.Sim, src, dst, 5*sim.Minute)
		bw := runTTCP(tb.Sim, src, dst, 16<<20).BandwidthKBs()
		if transport == "udp" {
			res.JoinUDP, res.BandwidthUDP = join, bw
		} else {
			res.JoinTCP, res.BandwidthTCP = join, bw
		}
	}
	return res, nil
}
