package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"wow/internal/brunet"
	"wow/internal/phys"
	"wow/internal/sim"
)

// ScaleOpts parameterizes the scale harness: how many routers to stand up,
// how many end-to-end packets to route through the converged overlay, and
// the join plan. Zero fields take the defaults below.
//
// Every build runs on the harness fabric (fabric.go); the options only pick
// the join plan. BatchJoin == 0 joins one node per scaleJoinSpacing through
// a 16-node founder pool on a zero-latency fabric — the rung whose routing
// hot path the benchmarks weigh. BatchJoin > 0 (the default when Shards > 1)
// targets the 10k–20k rungs: each batch's joins fan across every
// already-joined node, keepalives run on a coarse schedule, and the fabric
// has real WAN latency, which with Shards > 1 is the conservative lookahead
// of the site-sharded engine. Results are deterministic in (Seed, Shards)
// and independent of Workers.
type ScaleOpts struct {
	Seed int64
	// Nodes is the overlay size; staggered joins target the 1,000–5,000
	// range, batched sharded builds 5,000–20,000.
	Nodes int
	// Packets is how many end-to-end packets the measurement phase routes
	// between random node pairs.
	Packets int
	// Sites spreads hosts round-robin over this many network sites.
	Sites int
	// Settle is the convergence time granted after the last join.
	Settle sim.Duration

	// Shards is the engine's shard count (sites round-robin onto shards).
	// 0 or 1 keeps a single event queue.
	Shards int
	// Workers bounds the goroutines executing shard windows; 0 means
	// min(Shards, GOMAXPROCS). Results never depend on it.
	Workers int
	// BatchJoin enables batched bootstrap: joins start in batches that
	// ramp up to this size, each joiner bootstrapping off three nodes
	// spread deterministically across everything already joined. Defaults
	// to 256 when Shards>1, else 0.
	BatchJoin int
	// BatchInterval is the virtual time between batch starts.
	BatchInterval sim.Duration
	// WANLatency is the one-way inter-site delay; it defaults to 10 ms for
	// batched builds and to zero otherwise. Its floor (minus jitter, zero
	// here) is the engine's lookahead, so it must be positive when
	// Shards>1.
	WANLatency sim.Duration
	// OnProgress, when set, observes every build time-series sample.
	OnProgress func(ScalePoint)
}

// SettleSeconds converts a settle time given in (possibly fractional)
// seconds to a sim.Duration; 0 keeps the harness default.
func SettleSeconds(s float64) sim.Duration {
	return sim.Duration(s * float64(sim.Second))
}

// Milliseconds converts a latency given in (possibly fractional)
// milliseconds to a sim.Duration; 0 keeps the harness default.
func Milliseconds(ms float64) sim.Duration {
	return sim.Duration(ms * float64(sim.Millisecond))
}

func (o *ScaleOpts) fillDefaults() {
	if o.Nodes == 0 {
		o.Nodes = 2000
	}
	if o.Packets == 0 {
		o.Packets = 2000
	}
	if o.Sites == 0 {
		o.Sites = 32
	}
	if o.Settle == 0 {
		o.Settle = 2 * sim.Minute
	}
	if o.Shards > 1 && o.BatchJoin == 0 {
		o.BatchJoin = 256
	}
	if o.BatchJoin > 0 {
		if o.BatchInterval == 0 {
			o.BatchInterval = 5 * sim.Second
		}
		if o.WANLatency == 0 {
			o.WANLatency = 10 * sim.Millisecond
		}
	}
}

// scaleJoinSpacing staggers node starts when BatchJoin is 0.
const scaleJoinSpacing = 100 * sim.Millisecond

// coarseKeepaliveConfig is the protocol schedule of batched builds:
// paper-default topology constants but liveness pings 4x coarser —
// keepalives are pure background load on a fabric with no failures, and
// dominate the per-node event budget of multi-thousand-node builds. The
// topology-maintenance ticks stay at their defaults on purpose: the near
// overlord's status tick (15s) is also the ring-repair cadence that
// concurrent batch joiners depend on to find their true ring neighbors,
// and the far overlord's tick (30s) must fire enough rounds within the
// settle window to fill the far tables (coarsening either leaves successor
// gaps or paths past brunet's hop bound at 5k+ nodes).
func coarseKeepaliveConfig() brunet.Config {
	return brunet.Config{
		PingInterval: 60 * sim.Second,
	}
}

// ScaleOverlay is a converged large overlay ready for routing
// measurements. Built with staggered joins its fabric is zero-latency on
// purpose: with no propagation delay a packet's whole multi-hop route
// executes within one frozen instant — the clock never advances, no
// keepalive or gossip timer can interleave, and the measurement isolates
// the CPU cost of the routing hot path itself (RouteOne). A batched build
// has real WAN latency (the lookahead bound), so its measurement phase
// instead spaces timed sends and reads per-node counters.
type ScaleOverlay struct {
	Nodes []*brunet.Node
	// Series is the build time series of a batched build.
	Series []ScalePoint

	fab *fabric
}

// Close stops the engine's workers; a multi-shard overlay must be closed
// when done, and no overlay can run afterwards.
func (ov *ScaleOverlay) Close() { ov.fab.close() }

// BuildScaleOverlay stands up opts.Nodes bare Brunet routers (no IPOP/VM
// layers — this harness weighs the overlay, not the guests) and lets the
// ring converge.
func BuildScaleOverlay(opts ScaleOpts) (*ScaleOverlay, error) {
	opts.fillDefaults()
	ov, err := newScaleOverlay(opts)
	if err != nil {
		return nil, err
	}
	if err := ov.join(opts); err != nil {
		return nil, err
	}
	return ov, nil
}

// newScaleOverlay creates the fabric and the fleet; nothing has started.
func newScaleOverlay(opts ScaleOpts) (*ScaleOverlay, error) {
	f, err := newFabric("scale", opts.Seed, opts.Shards, opts.Workers, opts.Sites,
		phys.PathModel{}, phys.PathModel{OneWay: opts.WANLatency})
	if err != nil {
		return nil, err
	}
	// Shortcuts stay disabled: the harness measures pure ring routing
	// (near + far connections), not the traffic-adaptive topology.
	var cfg brunet.Config
	if opts.BatchJoin > 0 {
		cfg = coarseKeepaliveConfig()
	}
	ov := &ScaleOverlay{fab: f, Nodes: make([]*brunet.Node, opts.Nodes)}
	for i := range ov.Nodes {
		name := fmt.Sprintf("scale%05d", i)
		h := f.net.AddHost(name, f.site(i), f.net.Root(), phys.HostConfig{})
		ov.Nodes[i] = brunet.NewNode(h, brunet.AddrFromString(name), cfg)
		ov.Nodes[i].RegisterProto("scale", func(brunet.Addr, brunet.AppData) {})
	}
	return ov, nil
}

// join runs the join plan opts selects and the settle time after it.
func (ov *ScaleOverlay) join(opts ScaleOpts) error {
	var plan joinPlan
	if opts.BatchJoin > 0 {
		plan.batched(opts.Nodes, opts.BatchJoin, opts.BatchInterval, 0)
	} else {
		plan = staggeredPlan(opts.Nodes, scaleJoinSpacing, 16, scaleOffsets)
	}
	plan.settle(opts.Settle)
	return ov.fab.join(ov.Nodes, plan, func(p ScalePoint) {
		ov.Series = append(ov.Series, p)
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	})
}

// Pair returns a deterministic pseudo-random (src, dst) node pair for
// measurement iteration i.
func (ov *ScaleOverlay) Pair(i int) (src, dst *brunet.Node) {
	a, b := pairIndex(i, len(ov.Nodes))
	return ov.Nodes[a], ov.Nodes[b]
}

// RouteOne routes one end-to-end packet from src toward dst's address and
// drains every event at the frozen simulation instant, so the full
// multi-hop route (and nothing else) executes before it returns. Only
// meaningful on a zero-latency fabric.
func (ov *ScaleOverlay) RouteOne(src, dst *brunet.Node) {
	src.SendTo(dst.Addr(), brunet.DeliverExact, brunet.AppData{Proto: "scale", Size: 64})
	ov.fab.runUntil(ov.fab.now())
}

// Delivered counts the end-to-end payloads any node has received. It sums
// per-node counters: a shared closure counter would race across shards.
func (ov *ScaleOverlay) Delivered() int {
	return int(statTotal(ov.Nodes, "route.delivered"))
}

// RoutableFrac reports the fraction of nodes that are fully routable.
func (ov *ScaleOverlay) RoutableFrac() float64 {
	return float64(routableCount(ov.Nodes)) / float64(len(ov.Nodes))
}

// ScaleResult summarizes one scale-harness run. Protocol outcomes
// (delivered counts, hops, routability) are seed-deterministic; the
// wall-clock and allocation figures measure this machine's execution of
// the run.
type ScaleResult struct {
	Seed          int64
	Nodes, Sites  int
	RoutableFrac  float64
	BuildWallSec  float64
	JoinsPerSec   float64
	PacketsSent   int
	Delivered     int
	AvgHops       float64
	RouteWallSec  float64
	RoutedPerSec  float64
	NsPerPacket   float64
	AllocsPerOp   float64
	EventsTotal   uint64
	SettleSeconds float64

	// Provenance of a batched build (zero for staggered joins).
	Shards       int          `json:",omitempty"`
	Workers      int          `json:",omitempty"`
	BatchJoin    int          `json:",omitempty"`
	WANLatencyMs float64      `json:",omitempty"`
	MaxProcs     int          `json:",omitempty"`
	Series       []ScalePoint `json:",omitempty"`
}

// String renders the harness summary.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale harness: %d-node overlay over %d sites, seed %d\n", r.Nodes, r.Sites, r.Seed)
	if r.BatchJoin > 0 {
		fmt.Fprintf(&b, "  parallel: %d shards x %d workers (GOMAXPROCS %d), join batches of %d, wan %.0f ms\n",
			r.Shards, r.Workers, r.MaxProcs, r.BatchJoin, r.WANLatencyMs)
	}
	fmt.Fprintf(&b, "  build: %.1f s wall (%.0f joins/s), routable %.1f%%\n",
		r.BuildWallSec, r.JoinsPerSec, r.RoutableFrac*100)
	fmt.Fprintf(&b, "  routing: %d/%d packets delivered, avg %.1f hops\n",
		r.Delivered, r.PacketsSent, r.AvgHops)
	fmt.Fprintf(&b, "  hot path: %.0f ns/packet, %.1f allocs/packet, %.0f packets/s wall\n",
		r.NsPerPacket, r.AllocsPerOp, r.RoutedPerSec)
	fmt.Fprintf(&b, "  events processed: %d\n", r.EventsTotal)
	return b.String()
}

// RunScale builds a large overlay and measures the routing hot path:
// joins/sec during the build, then per-packet cost for end-to-end routed
// packets. On a zero-latency fabric the clock is frozen per packet, which
// isolates the pure routing cost; on a latent fabric the sends are spaced
// and timed together with the background keepalive load — honest for
// throughput, not comparable to the frozen-clock ns/packet.
func RunScale(opts ScaleOpts) (*ScaleResult, error) {
	opts.fillDefaults()
	t0 := time.Now()
	ov, err := BuildScaleOverlay(opts)
	if err != nil {
		return nil, err
	}
	defer ov.Close()
	buildWall := time.Since(t0).Seconds()

	res := &ScaleResult{
		Seed:          opts.Seed,
		Nodes:         opts.Nodes,
		Sites:         opts.Sites,
		RoutableFrac:  ov.RoutableFrac(),
		BuildWallSec:  buildWall,
		JoinsPerSec:   float64(opts.Nodes) / buildWall,
		PacketsSent:   opts.Packets,
		SettleSeconds: opts.Settle.Seconds(),
	}
	if opts.BatchJoin > 0 {
		res.Shards = ov.fab.eng.Shards()
		res.Workers = ov.fab.eng.Workers()
		res.BatchJoin = opts.BatchJoin
		res.WANLatencyMs = float64(opts.WANLatency) / float64(sim.Millisecond)
		res.MaxProcs = runtime.GOMAXPROCS(0)
		res.Series = ov.Series
	}

	route := func() {
		for i := 0; i < opts.Packets; i++ {
			ov.RouteOne(ov.Pair(i))
		}
	}
	if ov.fab.wanOneWay > 0 {
		horizon := ov.fab.scheduleProbes(ov.Nodes, "scale", opts.Packets, 5*sim.Second)
		route = func() { ov.fab.runUntil(horizon) }
	}
	fwd0, del0 := statTotal(ov.Nodes, "route.forwarded"), ov.Delivered()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	route()
	routeWall := time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)

	res.Delivered = ov.Delivered() - del0
	res.RouteWallSec = routeWall
	if routeWall > 0 {
		res.RoutedPerSec = float64(opts.Packets) / routeWall
	}
	res.NsPerPacket = routeWall * 1e9 / float64(opts.Packets)
	res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(opts.Packets)
	if res.Delivered > 0 {
		res.AvgHops = float64(statTotal(ov.Nodes, "route.forwarded")-fwd0) / float64(res.Delivered)
	}
	res.EventsTotal = ov.fab.processed()
	return res, nil
}
