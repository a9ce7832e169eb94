package main

import "wow/internal/sim"

// worldSeed seeds the overlay of every workload: the simulator's RNG and
// with it every protocol draw. The overlay is part of a workload's
// definition, like a data set; -seed draws the traffic on it. (With the
// overlay re-rolled per seed the count metrics spread 4-12 % across seeds,
// far outside the 1 % they may move.)
const worldSeed = 1

// ringSizes, shardedSizes and wowSizes are the benchmark's sizes, or the
// 64-node smoke sizes the tests use.
func ringSizes(o options) ringOpts {
	ro := defaultRingOpts(o.seed)
	if o.small {
		ro.nodes, ro.sites, ro.probes, ro.packets = 64, 8, 200, 2000
		ro.settle = 60 * sim.Second
	}
	return ro
}

func shardedSizes(o options) shardedOpts {
	so := defaultShardedOpts(o.seed)
	if o.small {
		so.nodes, so.sites, so.batch, so.packets = 64, 8, 16, 500
		so.settle, so.idle = 60*sim.Second, 10*sim.Second
	}
	return so
}

func wowSizes(o options) wowOpts {
	wo := defaultWowOpts()
	if o.small {
		wo.transfers, wo.directBytes, wo.relayedBytes = 16, 256<<10, 32<<10
	}
	return wo
}

// variant selects what a repetition of a traced run adds or changes.
type variant struct {
	// traced marks a repetition recorded with spans: ring_route appends its
	// idle window and its armed sweep to those.
	traced bool
	// workers1 runs sharded_ring on one worker.
	workers1 bool
}

// newScenario builds one repetition's world for the run's workload.
func newScenario(o options, v variant) scenario {
	switch o.workload {
	case "ring_build":
		return newRingBuild(ringSizes(o))
	case "ring_route":
		ro := ringSizes(o)
		if v.traced {
			// What the settled ring's maintenance plane costs per node and
			// virtual second, and what arming the flight recorder costs a
			// routed packet.
			ro.armed = true
			ro.idle = 120 * sim.Second
			if o.small {
				ro.idle = 30 * sim.Second
			}
		}
		return newRingRoute(ro)
	case "sharded_ring":
		so := shardedSizes(o)
		if v.workers1 {
			so.workers = 1
		}
		return newShardedRing(so)
	case "wow_transfer":
		return newWowTransfer(wowSizes(o))
	}
	panic("unreachable: workload validated by measure")
}

// pairwise is the median over rounds of a's time over b's, both at
// reference speed: the two repetitions of a round ran back to back, so the
// ratio compares neighbours in time.
func pairwise(rounds []round, a, b func(round) *rep) float64 {
	var rs []float64
	for _, r := range rounds {
		if x, y := a(r), b(r); x != nil && y != nil {
			rs = append(rs, x.wallRef()/y.wallRef())
		}
	}
	if len(rs) == 0 {
		return 0
	}
	return median(rs)
}

// traced completes a traced run: the comparative figures from the rounds,
// the drills, and the per-layer table. Metrics the workload does not
// exercise stay 0.
func traced(workload string, res *result, rounds []round, sp *spanRec, drill func(*spanRec) (map[string]float64, error)) error {
	layer := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		layer[d.name] = 0
	}
	res.layer = layer
	mid := res.mid

	drills, err := drill(sp)
	if err != nil {
		return err
	}
	for k, v := range drills {
		if _, ok := layer[k]; ok {
			layer[k] = v
		}
	}

	// Counters: deltas over the median repetition's timed phase.
	for k, v := range mid.delta {
		if _, ok := layer[k]; ok {
			layer[k] = v
		}
	}
	for k, v := range mid.phase {
		if _, ok := layer[k]; ok {
			layer[k] = v
		}
	}
	main := func(r round) *rep { return r.main }
	layer["harness.trace_overhead_frac"] = pairwise(rounds, main, func(r round) *rep { return r.plain }) - 1
	layer["sim.shard_speedup_w2"] = pairwise(rounds, func(r round) *rep { return r.oneWorker }, main)
	// The armed sweep follows the plain one inside each traced ring_route
	// repetition: same overlay, same packets, seconds apart.
	if workload == "ring_route" {
		layer["trace.armed_overhead_frac"] = median(field(res.reps, func(x *rep) float64 { return x.phase["trace.armed_overhead_frac"] }))
	}

	ops := float64(len(mid.opNs))
	events := mid.delta["sim.events"]
	wall := mid.wallRef()
	layer["sim.events_per_op"] = events / ops
	layer["sim.ns_per_event"] = ratio(wall*1e9, events)
	layer["sim.events_per_s"] = events / wall
	layer["sim.pending_max"] = mid.pendingMax
	layer["phys.pkts_per_op"] = mid.delta["phys.delivered"] / ops
	layer["brunet.link_success_frac"] = ratio(mid.delta["brunet.link_success"], mid.delta["brunet.link_attempts"])
	layer["brunet.sim_detect_ms_mean"] = ratio(mid.delta["brunet.detect_ms"], mid.delta["brunet.ping_dead"])
	layer["vip.retransmit_frac"] = ratio(mid.delta["vip.tcp_rto"]+mid.delta["vip.tcp_fast_retransmit"], mid.delta["vip.tcp_data_out"])
	if workload == "ring_route" {
		layer["brunet.route_ns_per_hop"] = ratio(wall*1e9, mid.delta["brunet.route_forwarded"])
	}

	raw := field(res.reps, func(x *rep) float64 { return x.wallS })
	slow := field(res.reps, func(x *rep) float64 { return x.slow })
	layer["harness.reps"] = float64(len(res.reps))
	layer["harness.wall_s_raw"] = minOf(raw)
	layer["harness.wall_s_med"] = median(raw)
	layer["harness.wall_spread"] = spread(raw)
	layer["harness.wall_ref_spread"] = spread(field(res.reps, (*rep).wallRef))
	layer["harness.setup_spread"] = spread(field(res.reps, func(x *rep) float64 { return x.setupS }))
	layer["harness.op_ns_p99"] = percentile(mid.opNs, 99) / mid.slowMed
	layer["harness.gc_cycles"] = mid.gcCycles
	layer["harness.gc_pause_ms"] = mid.gcPauseMs
	if res.identical {
		layer["harness.counts_identical"] = 1
	}
	layer["harness.calib_ns_min"] = minOf(slow) * calibRefNs
	layer["harness.calib_spread"] = spread(slow)
	layer["harness.slowness"] = mid.slow
	return nil
}
