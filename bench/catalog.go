package main

// metricDef names one metric, its unit and which way is better. bound is
// the share of the parent's median by which an end-to-end metric may
// worsen; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// tinyBound stands for "any drop is a regression" on metrics that are
// exact per seed: smaller than one failed operation in the largest
// workload, yet not a literal zero.
const tinyBound = 1e-6

// timeBound and countBound are the issue's: host times may worsen by a
// tenth, counts by a hundredth. README, "Measured A/A spread", has what
// the benchmark measured against itself under them.
const (
	timeBound  = 0.10
	countBound = 0.01
)

// endToEnd is what a user standing up and driving a WOW would see; the
// same ten on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", timeBound},
	{"wall_s", "s", "lower", timeBound},
	{"cpu_s", "s", "lower", timeBound},
	{"op_ns_p50", "ns", "lower", timeBound},
	{"allocs_per_op", "count", "lower", countBound},
	{"alloc_bytes_per_op", "bytes", "lower", countBound},
	{"heap_bytes_per_node", "bytes", "lower", countBound},
	{"sim_hops_mean", "hops", "lower", countBound},
	{"ok_frac", "frac", "higher", tinyBound},
	{"op_samples", "count", "higher", tinyBound},
}

// perLayer lists the traced run's metrics, layer by layer. Counters are
// deltas over the timed phase of the fastest repetition; *_ns, *_allocs
// figures without a workload phase behind them are drills (a fixed number
// of calls into that layer alone).
var perLayer = []metricDef{
	// sim
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_op", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.pending_max", "count", "lower", 0},
	{"sim.schedule_pop_ns", "ns", "lower", 0},
	{"sim.cancel_ns", "ns", "lower", 0},
	{"sim.atarg_allocs", "count", "lower", 0},
	{"sim.tick_ns", "ns", "lower", 0},
	{"sim.shard_window_ns", "ns", "lower", 0},
	{"sim.shard_send_ns", "ns", "lower", 0},
	{"sim.merge_ns_per_item", "ns", "lower", 0},
	{"sim.shard_windows", "count", "lower", 0},
	{"sim.shard_speedup_w2", "x", "higher", 0},
	// phys
	{"phys.delivered", "count", "lower", 0},
	{"phys.lost_wire", "count", "lower", 0},
	{"phys.boundary_in", "count", "lower", 0},
	{"phys.boundary_out", "count", "lower", 0},
	{"phys.pkts_per_op", "count", "lower", 0},
	{"phys.send_deliver_ns", "ns", "lower", 0},
	{"phys.send_deliver_allocs", "count", "lower", 0},
	{"phys.cross_shard_ns", "ns", "lower", 0},
	{"phys.boundary_ns", "ns", "lower", 0},
	// natsim
	{"natsim.translate_ns.cone", "ns", "lower", 0},
	{"natsim.translate_ns.restricted", "ns", "lower", 0},
	{"natsim.translate_ns.port_restricted", "ns", "lower", 0},
	{"natsim.translate_ns.symmetric", "ns", "lower", 0},
	{"natsim.translate_allocs", "count", "lower", 0},
	{"natsim.firewall_ns", "ns", "lower", 0},
	{"natsim.mappings", "count", "lower", 0},
	// brunet
	{"brunet.route_forwarded", "count", "lower", 0},
	{"brunet.route_delivered", "count", "higher", 0},
	{"brunet.link_attempts", "count", "lower", 0},
	{"brunet.link_success_frac", "frac", "higher", 0},
	{"brunet.ctm_sent", "count", "lower", 0},
	{"brunet.ping_sent", "count", "lower", 0},
	{"brunet.status_sent", "count", "lower", 0},
	{"brunet.conn_created", "count", "lower", 0},
	{"brunet.conn_dropped", "count", "lower", 0},
	{"brunet.routable_frac", "frac", "higher", 0},
	{"brunet.tunnel_established", "count", "higher", 0},
	{"brunet.tunnel_relayed", "count", "lower", 0},
	{"brunet.relink_success", "count", "higher", 0},
	{"brunet.false_suspect", "count", "lower", 0},
	{"brunet.sim_detect_ms_mean", "ms", "lower", 0},
	{"brunet.join_s", "s", "lower", 0},
	{"brunet.settle_s", "s", "lower", 0},
	{"brunet.route_ns_per_hop", "ns", "lower", 0},
	{"brunet.idle_ns_per_node_s", "ns", "lower", 0},
	{"brunet.loaded_ns_per_pkt", "ns", "lower", 0},
	{"brunet.sendto_allocs", "count", "lower", 0},
	{"brunet.forward_allocs", "count", "lower", 0},
	// ipop
	{"ipop.tunnel_out", "count", "lower", 0},
	{"ipop.tunnel_in", "count", "higher", 0},
	{"ipop.misrouted", "count", "lower", 0},
	{"ipop.sendip_ns", "ns", "lower", 0},
	{"ipop.sendip_allocs", "count", "lower", 0},
	// vip
	{"vip.tcp_data_out", "count", "lower", 0},
	{"vip.tcp_rto", "count", "lower", 0},
	{"vip.tcp_fast_retransmit", "count", "lower", 0},
	{"vip.retransmit_frac", "frac", "lower", 0},
	{"vip.icmp_sent", "count", "lower", 0},
	{"vip.icmp_timeout", "count", "lower", 0},
	{"vip.sim_goodput_kBps", "kB/s", "higher", 0},
	{"vip.sim_ping_ms_p50", "ms", "lower", 0},
	{"vip.tcp_seg_ns", "ns", "lower", 0},
	{"vip.tcp_seg_ns_lossy", "ns", "lower", 0},
	{"vip.tcp_seg_allocs", "count", "lower", 0},
	{"vip.ping_ns", "ns", "lower", 0},
	// trace
	{"trace.unsampled_ns", "ns", "lower", 0},
	{"trace.append_ns", "ns", "lower", 0},
	{"trace.drain_ns_per_rec", "ns", "lower", 0},
	{"trace.armed_overhead_frac", "frac", "lower", 0},
	// metrics
	{"metrics.handle_inc_ns", "ns", "lower", 0},
	{"metrics.string_inc_ns", "ns", "lower", 0},
	{"metrics.loghist_add_ns", "ns", "lower", 0},
	{"metrics.sharded_merge_ns", "ns", "lower", 0},
	// faults
	{"faults.timeline_entries", "count", "lower", 0},
	{"faults.perturb_ns", "ns", "lower", 0},
	// harness: the benchmark describing itself
	{"harness.reps", "count", "higher", 0},
	{"harness.wall_s_raw", "s", "lower", 0},
	{"harness.wall_s_med", "s", "lower", 0},
	{"harness.wall_spread", "frac", "lower", 0},
	{"harness.wall_ref_spread", "frac", "lower", 0},
	{"harness.setup_spread", "frac", "lower", 0},
	{"harness.op_ns_p99", "ns", "lower", 0},
	{"harness.gc_cycles", "count", "lower", 0},
	{"harness.gc_pause_ms", "ms", "lower", 0},
	{"harness.counts_identical", "bool", "higher", 0},
	{"harness.trace_overhead_frac", "frac", "lower", 0},
	{"harness.calib_ns_min", "ns", "lower", 0},
	{"harness.calib_spread", "frac", "lower", 0},
	{"harness.slowness", "x", "lower", 0},
}

// workloadDef names a workload and why it is in the benchmark.
type workloadDef struct {
	name string
	why  string
	// minReps/maxReps bound the repetitions of one run; the run's
	// -seconds budget picks a count between them.
	minReps, maxReps int
}

var workloadDefs = []workloadDef{
	{"ring_build", "2000-router serial join+settle: conn-table writes, linker/CTM handshakes, gossip and the sim heap do the work; natsim/ipop/vip do none", 5, 9},
	{"ring_route", "200k closed-loop routed packets on the settled ring at a frozen clock: pure conn-table reads, brunet greedy routing + phys + sim per packet; maintenance plane idle", 5, 7},
	{"sharded_ring", "3000 routers on sim.Sharded K=8 with 10 ms WAN: lanes, merge, window barrier and cross-shard phys hand-off; idle and loaded windows on one overlay", 5, 5},
	{"wow_transfer", "the paper's NATed testbed plus symmetric-NAT workstations: TTCP transfers and pings through natsim, ipop, vip TCP-lite, shortcuts, tunnels and a fault schedule", 5, 9},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
