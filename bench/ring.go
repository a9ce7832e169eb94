package main

import (
	"fmt"
	"math/rand"
	"time"

	"wow/internal/brunet"
	"wow/internal/metrics"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/trace"
)

// ringOpts sizes the serial ring workloads. The defaults are the
// benchmark's; tests shrink them for a smoke run.
type ringOpts struct {
	seed    int64 // orders the traffic: see drawPairs
	nodes   int
	sites   int
	probes  int          // probe-sweep packets after ring_build's timed phase
	packets int          // ring_route's timed packets
	spacing sim.Duration // virtual time between joins
	settle  sim.Duration
	// idle appends an idle window to ring_route's repetition (traced runs):
	// steady-state maintenance cost with no traffic.
	idle sim.Duration
	// armed appends a second sweep of the same packets with the flight
	// recorder armed 1-in-16 on every node (traced runs).
	armed bool
	// fabrics is how many times ring_build's set-up constructs the fabric
	// (keeping the last): one construction is too short to time.
	fabrics int
}

func defaultRingOpts(seed int64) ringOpts {
	return ringOpts{
		seed: seed, nodes: 2000, sites: 32, probes: 16000, packets: 200000,
		spacing: 100 * sim.Millisecond, settle: 120 * sim.Second, fabrics: 48,
	}
}

// ring is a serial-engine overlay of public routers on a zero-latency
// fabric: with no propagation delay a packet's whole multi-hop route runs
// inside RunUntil(Now()), the clock never advances, and no maintenance
// timer can interleave with a routed packet.
type ring struct {
	o     ringOpts
	sim   *sim.Simulator
	net   *phys.Network
	nodes []*brunet.Node
	pool  []brunet.URI
	// delivered counts "bench" payloads handed to any node's handler.
	delivered int
	// pairs are the (src, dst) node indices of the routed packets, put in
	// the seed's order before anything is timed.
	pairs [][2]int32
}

// fabric creates the simulator, network, hosts and (unstarted) nodes. It
// is a copy of the scale harness's serial build loop, split at Start so
// construction and joining can be measured apart.
func (r *ring) fabric() {
	o := r.o
	r.sim = sim.New(worldSeed)
	r.net = phys.NewNetwork(r.sim, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	sites := make([]*phys.Site, o.sites)
	for i := range sites {
		sites[i] = r.net.AddSite(fmt.Sprintf("site%02d", i))
	}
	// Paper-default protocol constants, shortcuts disabled: pure ring
	// routing over near and far connections.
	cfg := brunet.Config{}
	r.nodes = make([]*brunet.Node, o.nodes)
	for i := range r.nodes {
		name := fmt.Sprintf("s1-ring%05d", i)
		h := r.net.AddHost(name, sites[i%len(sites)], r.net.Root(), phys.HostConfig{})
		n := brunet.NewNode(h, brunet.AddrFromString(name), cfg)
		n.RegisterProto("bench", func(brunet.Addr, brunet.AppData) { r.delivered++ })
		r.nodes[i] = n
	}
}

// join starts node i off three of the sixteen earliest nodes and runs the
// join spacing.
func (r *ring) join(i int) error {
	n := r.nodes[i]
	var boot []brunet.URI
	if p := len(r.pool); p > 0 {
		boot = []brunet.URI{r.pool[i%p], r.pool[(i+7)%p], r.pool[(i+13)%p]}
	}
	if err := n.Start(boot); err != nil {
		return fmt.Errorf("start node %d: %w", i, err)
	}
	if len(r.pool) < 16 {
		r.pool = append(r.pool, n.BootstrapURI())
	}
	r.sim.RunFor(r.o.spacing)
	return nil
}

// drawPairs returns n (src, dst) pairs of distinct nodes in an order drawn
// from the seed. The set of pairs is the same for every seed — packet k
// leaves node k mod nodes for the node 1+37·(k div nodes) places further
// on in index order, which is a scattered place on the ring because
// addresses are hashes of names — and only the order in which they are
// sent is shuffled. The routed work is then identical across seeds, so
// the counts (hops, allocations of first-used paths) are exact and only
// the access pattern, and with it the host time, varies.
func drawPairs(seed int64, nodes, n int) [][2]int32 {
	pairs := make([][2]int32, n)
	for k := range pairs {
		a := k % nodes
		b := (a + 1 + 37*(k/nodes)%(nodes-1)) % nodes
		pairs[k] = [2]int32{int32(a), int32(b)}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0fba))
	rng.Shuffle(n, func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// routeOne sends one 64-byte packet and drains every event at the frozen
// instant, so the full route and nothing else executes.
func (r *ring) routeOne(p [2]int32) {
	r.nodes[p[0]].SendTo(r.nodes[p[1]].Addr(), brunet.DeliverExact, brunet.AppData{Proto: "bench", Size: 64})
	r.sim.RunUntil(r.sim.Now())
}

// noteRoutable records the share of nodes that hold their ring position
// and, when checked, counts each node as a checked operation.
func noteRoutable(x *rep, nodes []*brunet.Node, checked bool) {
	ok := 0
	for _, n := range nodes {
		if n.IsRoutable() {
			ok++
		}
		if checked {
			x.check(n.IsRoutable())
		}
	}
	x.phase["brunet.routable_frac"] = float64(ok) / float64(len(nodes))
}

func (r *ring) counters() map[string]float64 {
	c := map[string]float64{"sim.events": float64(r.sim.Processed)}
	physCounters(c, r.net.TotalStats())
	brunetCounters(c, r.nodes)
	return c
}

func (r *ring) members() int { return len(r.nodes) }
func (r *ring) close()       {}

// physCounters copies the physical network's delivery counters.
func physCounters(c map[string]float64, st metrics.Counter) {
	c["phys.delivered"] = float64(st.Get("delivered"))
	c["phys.lost_wire"] = float64(st.Get("lost.wire"))
	c["phys.boundary_in"] = float64(st.Get("boundary.in"))
	c["phys.boundary_out"] = float64(st.Get("boundary.out"))
}

// brunetNames maps per-layer metric names to the node counters they sum.
var brunetNames = map[string]string{
	"brunet.route_forwarded":    "route.forwarded",
	"brunet.route_delivered":    "route.delivered",
	"brunet.link_attempts":      "link.attempts",
	"brunet.link_success":       "link.success",
	"brunet.ctm_sent":           "ctm.sent",
	"brunet.ping_sent":          "ping.sent",
	"brunet.status_sent":        "status.sent",
	"brunet.conn_created":       "conn.created",
	"brunet.tunnel_established": "tunnel.established",
	"brunet.tunnel_relayed":     "tunnel.relayed",
	"brunet.relink_success":     "relink.success",
	"brunet.false_suspect":      "liveness.false_suspect",
	"brunet.detect_ms":          "liveness.detect_ms",
	"brunet.ping_dead":          "ping.dead",
}

// brunetCounters sums the overlay's protocol counters over the fleet.
func brunetCounters(c map[string]float64, nodes []*brunet.Node) {
	var all metrics.Counter
	for _, n := range nodes {
		all.Merge(&n.Stats)
	}
	for name, src := range brunetNames {
		c[name] = float64(all.Get(src))
	}
	var dropped int64
	for _, name := range all.Names() {
		if len(name) > len("conn.dropped.") && name[:len("conn.dropped.")] == "conn.dropped." {
			dropped += all.Get(name)
		}
	}
	c["brunet.conn_dropped"] = float64(dropped)
}

// sweep routes the given pairs and returns route.forwarded and
// route.delivered deltas over them.
func (r *ring) sweep(pairs [][2]int32) (fwd, del float64) {
	before := r.counters()
	for _, p := range pairs {
		r.routeOne(p)
	}
	after := r.counters()
	return after["brunet.route_forwarded"] - before["brunet.route_forwarded"],
		after["brunet.route_delivered"] - before["brunet.route_delivered"]
}

// calibEvery is how many join steps, and settleChunks how many pieces of
// the settle, run between two calibration calls.
const (
	calibEvery   = 32
	settleChunks = 8
)

// boot joins every node and settles the ring, calibrating between
// segments. Each join step's host ns is appended to ops when it is not
// nil. It returns the host seconds of the joins and of the settle.
func (r *ring) boot(x *rep, ops *[]float64) (joinS, settleS float64, err error) {
	w := x.watch()
	for i := range r.nodes {
		if i > 0 && i%calibEvery == 0 {
			x.calibrate()
		}
		s := x.sp.begin("join")
		t0 := time.Now()
		if err := r.join(i); err != nil {
			return 0, 0, err
		}
		if ops != nil {
			*ops = append(*ops, float64(time.Since(t0)))
		}
		s.end()
		x.notePending(r.sim.Pending())
	}
	joinS = w.ns() / 1e9
	w = x.watch()
	s := x.sp.begin("settle")
	for k := 0; k < settleChunks; k++ {
		x.calibrate()
		r.sim.RunFor(r.o.settle / settleChunks)
	}
	x.notePending(r.sim.Pending())
	s.end()
	return joinS, w.ns() / 1e9, nil
}

// ringBuild is the ring_build workload: fabric in set-up, every join and
// the settle timed, then a probe sweep.
type ringBuild struct{ ring }

func newRingBuild(o ringOpts) *ringBuild { return &ringBuild{ring{o: o}} }

func (w *ringBuild) setup(x *rep) error {
	s := x.sp.begin("fabric")
	for i := 0; i < w.o.fabrics; i++ {
		if i > 0 && i%4 == 0 {
			x.calibrate()
		}
		w.fabric()
	}
	w.pairs = drawPairs(w.o.seed, w.o.nodes, w.o.probes)
	x.opNs = make([]float64, 0, w.o.nodes)
	s.end()
	return nil
}

func (w *ringBuild) timed(x *rep) error {
	joinS, settleS, err := w.boot(x, &x.opNs)
	x.timing("brunet.join_s", joinS)
	x.timing("brunet.settle_s", settleS)
	return err
}

func (w *ringBuild) after(x *rep) error {
	noteRoutable(x, w.nodes, true)
	w.delivered = 0
	x.hopsFwd, x.hopsDel = w.sweep(w.pairs)
	x.attempted += len(w.pairs)
	x.failed += len(w.pairs) - w.delivered
	return nil
}

// ringRoute is the ring_route workload: the same ring built in set-up,
// then closed-loop routed packets at a frozen clock, one client.
type ringRoute struct{ ring }

func newRingRoute(o ringOpts) *ringRoute { return &ringRoute{ring{o: o}} }

func (w *ringRoute) setup(x *rep) error {
	s := x.sp.begin("fabric")
	w.fabric()
	w.pairs = drawPairs(w.o.seed, w.o.nodes, w.o.packets)
	x.opNs = make([]float64, 0, w.o.packets)
	s.end()
	s = x.sp.begin("boot")
	defer s.end()
	_, _, err := w.boot(x, nil)
	return err
}

// routeBatch is how many sends one "route" span covers: a span per packet
// would cost more memory than the packets it describes. A calibration call
// follows every fourth batch.
const routeBatch = 1000

// sends routes every pair, timing each packet into ops.
func (w *ringRoute) sends(x *rep, ops []float64) []float64 {
	for lo := 0; lo < len(w.pairs); lo += routeBatch {
		hi := lo + routeBatch
		if hi > len(w.pairs) {
			hi = len(w.pairs)
		}
		if b := lo / routeBatch; b > 0 && b%4 == 0 {
			x.calibrate()
		}
		s := x.sp.begin("route")
		t0 := time.Now()
		for _, p := range w.pairs[lo:hi] {
			w.routeOne(p)
			t1 := time.Now()
			ops = append(ops, float64(t1.Sub(t0)))
			t0 = t1
		}
		s.endWith(hi-lo, nil)
		x.notePending(w.sim.Pending())
	}
	return ops
}

func (w *ringRoute) timed(x *rep) error {
	w.delivered = 0
	x.opNs = w.sends(x, x.opNs)
	return nil
}

func (w *ringRoute) after(x *rep) error {
	noteRoutable(x, w.nodes, true)
	x.hopsFwd, x.hopsDel = x.delta["brunet.route_forwarded"], x.delta["brunet.route_delivered"]
	x.attempted += len(w.pairs)
	x.failed += len(w.pairs) - w.delivered
	if w.o.armed {
		// The same packets over the same overlay, seconds after the plain
		// sweep, with every node's flight recorder sampling 1 in 16.
		tr := trace.New(trace.Options{SampleN: 16}, w.sim)
		for _, n := range w.nodes {
			n.EnableTrace(tr)
		}
		s := x.sp.begin("armed")
		x.beginPhase()
		sw := x.watch()
		w.sends(x, make([]float64, 0, len(w.pairs)))
		armedS := sw.ns() / 1e9
		slow, _ := x.endPhase()
		s.end()
		x.phase["trace.armed_overhead_frac"] = armedS/slow/x.wallRef() - 1
		x.phase["trace.records"] = float64(len(tr.Drain()))
		for _, n := range w.nodes {
			n.EnableTrace(nil)
		}
	}
	if w.o.idle > 0 {
		s := x.sp.begin("idle")
		ev0 := w.sim.Processed
		x.beginPhase()
		sw := x.watch()
		for k := 0; k < settleChunks; k++ {
			x.calibrate()
			w.sim.RunFor(w.o.idle / settleChunks)
		}
		ns := sw.ns()
		slow, _ := x.endPhase()
		s.endWith(0, map[string]float64{"sim.events": float64(w.sim.Processed - ev0)})
		x.phase["brunet.idle_ns_per_node_s"] = ns / slow / (float64(len(w.nodes)) * w.o.idle.Seconds())
	}
	return nil
}
