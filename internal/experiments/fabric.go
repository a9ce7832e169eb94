package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"wow/internal/brunet"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/trace"
)

// fabric is the simulated substrate every fleet harness (scale, the
// batched all-symmetric-NAT ring, gray failures) stands on: a sim.Sharded
// engine driving a phys.NewShardedNetwork over round-robin sites. There is
// no separate serial variant — a one-shard engine delegates RunUntil to its
// single Simulator and is the serial engine, and a one-shard network is the
// network phys.NewNetwork builds: every middlebox is consulted at send time
// (sim, phys and natsim pin both in their shard tests). With several shards
// a packet to a NAT chain on another shard than its sender's is translated
// at arrival instead, so the shard layout is part of a run's key. The
// fabric also owns what the harnesses used to copy from each other: the
// lookahead derivation, the flight-recorder wiring, starting a fleet from a
// join plan with Start errors returned instead of panicking on a worker
// goroutine, the spaced probe train, and the ring audit.
type fabric struct {
	name  string // harness name; prefixes every error
	eng   *sim.Sharded
	net   *phys.Network
	sites []*phys.Site
	// wanOneWay is the inter-site propagation delay. Zero means a packet's
	// whole route runs at one frozen instant (and forces a single shard:
	// the lookahead check below rejects anything else).
	wanOneWay sim.Duration
	// startErrs[s] is shard s's failed Start with the lowest fleet index.
	// Only events running on shard s write it, so it needs no lock.
	startErrs []startFailure
}

type startFailure struct {
	node int
	err  error
}

// newFabric builds the engine, network and sites. shards < 1 means one
// shard; workers 0 means GOMAXPROCS (the engine clamps it to the shard
// count, and results never depend on it). With several shards the
// cross-shard latency floor becomes the engine's lookahead.
func newFabric(name string, seed int64, shards, workers, sites int, lan, wan phys.PathModel) (*fabric, error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := sim.NewSharded(seed, max(shards, 1), workers)
	f := &fabric{
		name:      name,
		eng:       eng,
		net:       phys.NewShardedNetwork(eng, phys.UniformLatency(lan, wan)),
		sites:     make([]*phys.Site, sites),
		wanOneWay: wan.OneWay,
		startErrs: make([]startFailure, eng.Shards()),
	}
	for i := range f.sites {
		f.sites[i] = f.net.AddSite(fmt.Sprintf("site%02d", i))
	}
	if eng.Shards() > 1 {
		floor, ok := f.net.CrossShardFloor()
		if !ok {
			f.close()
			return nil, fmt.Errorf("%s: %d shards but no cross-shard site pair (need Sites >= Shards)", name, shards)
		}
		if floor <= 0 {
			f.close()
			return nil, fmt.Errorf("%s: cross-shard latency floor %v must be positive (WANLatency too small)", name, floor)
		}
		eng.SetLookahead(floor)
	}
	return f, nil
}

// timeline is shard 0's simulator, the harness timeline: the clock a
// one-shard harness runs on, and the one a multi-shard harness's driver and
// fault injector schedule on and read between engine runs.
func (f *fabric) timeline() *sim.Simulator { return f.eng.Shard(0) }

func (f *fabric) runUntil(t sim.Time) { f.eng.RunUntil(t) }
func (f *fabric) now() sim.Time       { return f.eng.Now() }
func (f *fabric) processed() uint64   { return f.eng.Processed() }
func (f *fabric) close()              { f.eng.Close() }

// site returns the site of the i-th host of a fleet spread round-robin.
func (f *fabric) site(i int) *phys.Site { return f.sites[i%len(f.sites)] }

// armTrace wires a flight recorder into the network and the fleet: one
// single-writer buffer per engine shard, each stamping records with its
// own shard's clock, so physical-layer drops terminate traced routes too.
// Call before any node starts.
func (f *fabric) armTrace(opts trace.Options, fleet []*brunet.Node) *trace.Tracer {
	clocks := make([]trace.Clock, f.eng.Shards())
	for i := range clocks {
		clocks[i] = f.eng.Shard(i)
	}
	tracer := trace.New(opts, clocks...)
	f.net.FlightRecorder = tracer
	for _, n := range fleet {
		n.EnableTrace(tracer)
	}
	return tracer
}

// joinPlan is a fleet's bootstrap schedule as data: steps[i] says when
// fleet member i starts and which members (by fleet index) it is given as
// bootstrap URIs; marks are the instants at which a build sample is taken;
// end is where the build stops.
type joinPlan struct {
	steps []joinStep
	marks []joinMark
	end   sim.Time
}

type joinStep struct {
	at   sim.Time
	boot []int
}

type joinMark struct {
	at     sim.Time
	joined int
}

// bootPicks spreads joiner i's bootstrap targets over the first pool fleet
// members; an empty pool means the joiner founds the ring.
func bootPicks(i, pool int, offsets []int) []int {
	if pool == 0 {
		return nil
	}
	picks := make([]int, len(offsets))
	for k, off := range offsets {
		picks[k] = (i + off) % pool
	}
	return picks
}

// scaleOffsets are the three bootstrap picks of the scale and NAT fleets.
var scaleOffsets = []int{0, 7, 13}

// staggered appends n members that start one every spacing from p.end on,
// each bootstrapping off the earliest min(i, pool) members (i its fleet
// index), so leaf-connection load spreads over a small founder pool instead
// of piling onto one node.
func (p *joinPlan) staggered(n int, spacing sim.Duration, pool int, offsets []int) {
	for range n {
		i := len(p.steps)
		p.steps = append(p.steps, joinStep{at: p.end, boot: bootPicks(i, min(i, pool), offsets)})
		p.end = p.end.Add(spacing)
	}
}

// batched appends n members that join in batches from p.end on, one batch
// per interval. Batch sizes ramp geometrically (1, 1, 2, 4, …) up to limit
// so the infant ring is never stampeded; within a batch, starts stagger
// across the first half of the interval and the second half lets the CTM
// and linking traffic drain before the next wave. With routers > 0 every
// joiner bootstraps off the first routers fleet members (NATed peers
// cannot accept inbound dials); otherwise off every member of earlier
// batches, so batch members join concurrently in virtual time and the
// whole joined overlay is the bootstrap pool. One mark follows each batch.
func (p *joinPlan) batched(n, limit int, interval sim.Duration, routers int) {
	for started := 0; started < n; {
		size := min(max(started, 1), limit, n-started)
		step := max(interval/2/sim.Duration(size), sim.Microsecond)
		pool := routers
		if pool == 0 {
			pool = started
		}
		for j := 0; j < size; j++ {
			p.steps = append(p.steps, joinStep{
				at:   p.end.Add(sim.Duration(j) * step),
				boot: bootPicks(started+j, pool, scaleOffsets),
			})
		}
		started += size
		p.end = p.end.Add(interval)
		p.marks = append(p.marks, joinMark{at: p.end, joined: started})
	}
}

// settle extends the plan by the convergence time after the last join; a
// plan that samples its build takes a last sample there.
func (p *joinPlan) settle(d sim.Duration) {
	p.end = p.end.Add(d)
	if len(p.marks) > 0 {
		p.marks = append(p.marks, joinMark{at: p.end, joined: p.marks[len(p.marks)-1].joined})
	}
}

// ScalePoint is one sample of a build time series: how much wall clock
// and virtual time had elapsed when the sample was taken, how many nodes
// had joined, and the cumulative join throughput.
type ScalePoint struct {
	WallSec     float64
	VirtualSec  float64
	Joined      int
	JoinsPerSec float64
	Events      uint64
}

// join schedules every Start of the plan on the starting node's own shard
// and runs the build, handing sample a point at each mark. Boot URIs are
// resolved when the event fires: the picked members started in earlier
// windows and BootstrapURI reads write-once state, so the cross-shard read
// is ordered by the engine's barrier. A failed Start does not panic on a
// worker goroutine: each shard keeps its lowest failing fleet index, and
// join returns the fleet-wide lowest — the same one for any worker count —
// with the engine closed.
func (f *fabric) join(fleet []*brunet.Node, plan joinPlan, sample func(ScalePoint)) error {
	for i, st := range plan.steps {
		n, s := fleet[i], fleet[i].Host().Sim()
		var start func()
		start = func() {
			// On a zero-latency fabric whole handshake cascades run inside
			// one instant, so a start due at an instant that still has work
			// queued goes to the back of that instant: the node joins a
			// quiet overlay, exactly as if the driver had run to the start
			// time and started it by hand.
			if f.wanOneWay == 0 {
				if pt, ok := s.PeekTime(); ok && pt == s.Now() {
					s.At(pt, start)
					return
				}
			}
			boot := make([]brunet.URI, len(st.boot))
			for k, b := range st.boot {
				boot[k] = fleet[b].BootstrapURI()
			}
			if err := n.Start(boot); err != nil {
				if e := &f.startErrs[n.Host().Site.Shard()]; e.err == nil || i < e.node {
					*e = startFailure{node: i, err: err}
				}
			}
		}
		s.At(st.at, start)
	}
	t0 := time.Now()
	for _, m := range plan.marks {
		f.runUntil(m.at)
		if err := f.startErr(fleet); err != nil {
			return err
		}
		p := ScalePoint{
			WallSec:    time.Since(t0).Seconds(),
			VirtualSec: m.at.Seconds(),
			Joined:     m.joined,
			Events:     f.processed(),
		}
		if p.WallSec > 0 {
			p.JoinsPerSec = float64(m.joined) / p.WallSec
		}
		sample(p)
	}
	f.runUntil(plan.end)
	return f.startErr(fleet)
}

// startErr reports the failed Start with the lowest fleet index, closing
// the engine when there is one.
func (f *fabric) startErr(fleet []*brunet.Node) error {
	var first *startFailure
	for s := range f.startErrs {
		if e := &f.startErrs[s]; e.err != nil && (first == nil || e.node < first.node) {
			first = e
		}
	}
	if first == nil {
		return nil
	}
	f.close()
	return fmt.Errorf("%s: start %s: %w", f.name, fleet[first.node].Host().Name, first.err)
}

// pairIndex returns a deterministic pseudo-random pair of distinct indices
// below n for probe i.
func pairIndex(i, n int) (a, b int) {
	a = int(uint32(i) * 2654435761 % uint32(n))
	b = int((uint32(i)*40503 + 2654435769) % uint32(n))
	if a == b {
		b = (b + 1) % n
	}
	return a, b
}

// scheduleProbes queues count end-to-end packets between pairIndex pairs
// of among, 2 ms apart from now, each send on its source node's shard, and
// returns the horizon by which the last one has drained. Callers count
// deliveries as the fleet's route.delivered delta across the run to that
// horizon — a shared closure counter would race across shards.
func (f *fabric) scheduleProbes(among []*brunet.Node, proto string, count int, drain sim.Duration) sim.Time {
	const spacing = 2 * sim.Millisecond
	base := f.now()
	for i := 0; i < count; i++ {
		a, b := pairIndex(i, len(among))
		src, dst := among[a], among[b].Addr()
		src.Host().Sim().At(base.Add(sim.Duration(i)*spacing), func() {
			src.SendTo(dst, brunet.DeliverExact, brunet.AppData{Proto: proto, Size: 64})
		})
	}
	return base.Add(sim.Duration(count)*spacing + drain)
}

// statTotal sums one per-node counter over a fleet.
func statTotal(fleet []*brunet.Node, name string) int64 {
	var total int64
	for _, n := range fleet {
		total += n.Stats.Get(name)
	}
	return total
}

// routableCount counts the fleet members that are fully routable.
func routableCount(fleet []*brunet.Node) int {
	routable := 0
	for _, n := range fleet {
		if n.IsRoutable() {
			routable++
		}
	}
	return routable
}

// ringAudit walks the fleet in sorted address order and classifies every
// member's link to its true clockwise successor: missing (no
// structured-near connection — zero for a consistent ring), tunneled
// (relay-backed) or direct.
func ringAudit(fleet []*brunet.Node) (missing, direct, tunneled int) {
	ring := append([]*brunet.Node(nil), fleet...)
	sort.Slice(ring, func(i, j int) bool { return ring[i].Addr().Less(ring[j].Addr()) })
	for i, n := range ring {
		c := n.ConnectionTo(ring[(i+1)%len(ring)].Addr())
		switch {
		case c == nil || !c.Has(brunet.StructuredNear):
			missing++
		case c.Tunneled():
			tunneled++
		default:
			direct++
		}
	}
	return missing, direct, tunneled
}
