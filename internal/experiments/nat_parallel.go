package experiments

import (
	"fmt"
	"runtime"
	"time"

	"wow/internal/brunet"
	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
)

// This file is the fleet-scale half of the all-symmetric-NAT ring
// experiment: the batched build of bare overlay nodes that RunSymmetricRing
// runs when SymRingOpts.BatchJoin is set. Every overlay member except the
// public routers sits behind its own symmetric NAT — each NAT realm is
// pinned to its host's site, so all translation state stays on one shard's
// timeline while the fleet builds in parallel. The VM-workstation run in
// nat.go is golden-pinned; nothing here touches it.

// NATPoint is one sample of the batched build time series: the scale.series
// schema (wall/virtual clocks, joined count, throughput, events) extended
// with the tunnel subsystem's progress — how much of the fleet is routable,
// how many relay-backed tunnel edges exist, and how many upgrade probes the
// tunnels have burned trying to become direct edges (with all-symmetric NATs
// they never succeed; the probe count measures the cost of trying).
type NATPoint struct {
	ScalePoint
	RoutableFrac  float64
	Tunnels       int64
	UpgradeProbes int64
}

// natRingConfig is the protocol schedule of the batched NAT build:
// FastTestConfig's aggressive link-failure constants (tunnel fallback is
// gated on direct linking failing, and the paper-default ~155s/dead-URI
// schedule would dominate the run), but keepalives and topology ticks
// coarsened for multi-thousand-node event budgets. PingInterval must stay
// under half the 120s NAT mapping TTL: the keepalive traffic is what holds
// every NAT pinhole open, and an expired mapping severs the link.
func natRingConfig() brunet.Config {
	c := brunet.FastTestConfig()
	c.PingInterval = 30 * sim.Second
	c.StatusInterval = 10 * sim.Second
	c.FarInterval = 15 * sim.Second
	c.TunnelUpgradeInterval = 30 * sim.Second
	return c
}

// runSymmetricRingBatched builds the all-symmetric overlay with batched
// bootstrap on the harness fabric. All hosts, NATs and nodes are created up
// front; the routers start first, staggered, bootstrapping off earlier
// routers, and the NATed fleet then joins in batches exclusively off the
// public routers — a symmetric NAT drops unsolicited inbound dials, so only
// the routers are reachable bootstrap targets — and the ring assembles over
// relay-backed tunnel edges through those routers.
func runSymmetricRingBatched(opts SymRingOpts) (*SymRingResult, error) {
	f, err := newFabric("sym-ring", opts.Seed, opts.Shards, opts.Workers, opts.Sites,
		phys.PathModel{OneWay: sim.Millisecond}, phys.PathModel{OneWay: opts.WANLatency})
	if err != nil {
		return nil, err
	}
	defer f.close()

	cfg := natRingConfig()
	members := make([]*brunet.Node, 0, opts.Routers+opts.Nodes)
	for i := 0; i < opts.Routers; i++ {
		name := fmt.Sprintf("pub%03d", i)
		h := f.net.AddHost(name, f.site(i), f.net.Root(), phys.HostConfig{})
		members = append(members, brunet.NewNode(h, brunet.AddrFromString(name), cfg))
	}
	for i := 0; i < opts.Nodes; i++ {
		name := fmt.Sprintf("sym%05d", i)
		site := f.site(i)
		// The NAT's clock is its owning shard's: the realm pins to site, and
		// all translation state is only ever touched on that timeline.
		nat := natsim.NewNAT(name+"-nat", natsim.Config{Type: natsim.Symmetric},
			f.net.Root().NextIP(), f.eng.Shard(site.Shard()).Now)
		realm := f.net.AddRealm(name, f.net.Root(), nat, phys.MustParseIP("10.0.0.2"))
		h := f.net.AddHost(name+"-host", site, realm, phys.HostConfig{})
		members = append(members, brunet.NewNode(h, brunet.AddrFromString(name), cfg))
	}
	for _, n := range members {
		n.RegisterProto("nat", func(brunet.Addr, brunet.AppData) {})
	}
	nodes := members[opts.Routers:]

	plan := staggeredPlan(opts.Routers, 250*sim.Millisecond, opts.Routers, scaleOffsets)
	plan.end = plan.end.Add(symBatchInterval)
	plan.batched(opts.Nodes, opts.BatchJoin, symBatchInterval, opts.Routers)
	plan.settle(opts.Settle)

	res := &SymRingResult{
		Seed:         opts.Seed,
		Routers:      opts.Routers,
		Nodes:        opts.Nodes,
		Shards:       f.eng.Shards(),
		Workers:      f.eng.Workers(),
		BatchJoin:    opts.BatchJoin,
		WANLatencyMs: float64(opts.WANLatency) / float64(sim.Millisecond),
		MaxProcs:     runtime.GOMAXPROCS(0),
	}
	t0 := time.Now()
	err = f.join(members, plan, func(sp ScalePoint) {
		p := NATPoint{
			ScalePoint:    sp,
			RoutableFrac:  float64(routableCount(members)) / float64(opts.Routers+sp.Joined),
			Tunnels:       statTotal(members, "tunnel.established"),
			UpgradeProbes: statTotal(members, "tunnel.upgrade_probes"),
		}
		res.Series = append(res.Series, p)
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	})
	if err != nil {
		return nil, err
	}
	res.BuildWallSec = time.Since(t0).Seconds()

	// Audit the converged ring exactly as the workstation run does.
	res.auditRing(members)
	res.UpgradeProbes = statTotal(members, "tunnel.upgrade_probes")

	// End-to-end probes between random NATed pairs, delivered through
	// relay-backed tunnel routes.
	res.ProbesSent = opts.Probes
	del0 := statTotal(members, "route.delivered")
	f.runUntil(f.scheduleProbes(nodes, "nat", opts.Probes, 10*sim.Second))
	res.ProbesDelivered = int(statTotal(members, "route.delivered") - del0)
	res.EventsTotal = f.processed()
	return res, nil
}
