package brunet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"wow/internal/natsim"
	"wow/internal/phys"
	"wow/internal/sim"
)

// natRig extends overlayRig with per-node NAT handles so tests can kill
// relays, relax NAT disciplines mid-run, and inspect mappings.
type natRig struct {
	*overlayRig
	nats map[Addr]*natsim.NAT
}

// addNATed starts a node behind a fresh per-host NAT of the given type,
// bootstrapping off the rig's first node.
func (r *natRig) addNATed(t *testing.T, name string, typ natsim.NATType) *Node {
	t.Helper()
	nat := natsim.NewNAT(name+"-nat", natsim.Config{Type: typ}, r.net.Root().NextIP(), r.s.Now)
	base := phys.MustParseIP(fmt.Sprintf("10.%d.0.2", len(r.nodes)))
	realm := r.net.AddRealm(name, r.net.Root(), nat, base)
	h := r.net.AddHost(name+"-host", r.site, realm, phys.HostConfig{})
	n := NewNode(h, AddrFromString(name), FastTestConfig())
	if err := n.Start([]URI{r.nodes[0].BootstrapURI()}); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	r.nodes = append(r.nodes, n)
	r.nats[n.Addr()] = nat
	return n
}

// buildSymmetricRing builds an overlay of a few public routers plus many
// nodes each behind its own symmetric NAT. With more symmetric nodes than
// routers, the ring necessarily contains symmetric-symmetric adjacencies,
// and those near links can only be closed by tunnel edges: symmetric NATs
// on both sides defeat hole punching outright.
func buildSymmetricRing(t *testing.T, seed int64, routers, symmetric int) *natRig {
	t.Helper()
	r := &natRig{overlayRig: newOverlayRig(seed), nats: map[Addr]*natsim.NAT{}}
	for i := 0; i < routers; i++ {
		r.addPublic(t, fmt.Sprintf("router%02d", i), FastTestConfig())
		r.s.RunFor(2 * sim.Second)
	}
	for i := 0; i < symmetric; i++ {
		r.addNATed(t, fmt.Sprintf("sym%02d", i), natsim.Symmetric)
		r.s.RunFor(2 * sim.Second)
	}
	r.s.RunFor(4 * sim.Minute)
	return r
}

// tunneledNearConn returns some node holding a tunneled structured-near
// connection, with that connection.
func (r *natRig) tunneledNearConn() (*Node, *Connection) {
	for _, n := range r.ringOrder() {
		for _, c := range n.Connections() {
			if c.Tunneled() && c.Has(StructuredNear) {
				return n, c
			}
		}
	}
	return nil, nil
}

// nodeByAddr finds a rig node by overlay address.
func (r *natRig) nodeByAddr(a Addr) *Node {
	for _, n := range r.nodes {
		if n.Addr() == a {
			return n
		}
	}
	return nil
}

// totalStat sums a counter across every node in the rig.
func (r *natRig) totalStat(name string) int64 {
	var tot int64
	for _, n := range r.nodes {
		tot += n.Stats.Get(name)
	}
	return tot
}

// TestNoStashBesideDirectEdge: the candidate stash feeds the tunnel fallback
// alone, so a settled node keeps none for a peer it holds over a direct edge.
// The case that used to leave one behind is a CTM reply arriving after the
// link it set off has completed: the link's onConnection deletes the stash
// and the late reply must not file it again.
func TestNoStashBesideDirectEdge(t *testing.T) {
	_, nodes := buildZeroLatencyRing(t, 13, 64)
	stale, stashed := 0, 0
	for _, n := range nodes {
		for _, st := range n.tun.cands {
			stashed++
			if c, ok := n.lookup(st.peer); ok && !c.Tunneled() {
				stale++
			}
		}
	}
	if stale != 0 {
		t.Errorf("%d of the %d stashes on %d settled nodes are for peers held over a direct edge, want none", stale, stashed, len(nodes))
	}
}

// TestStashCopyAcrossShards: a stash is a copy of the CTM it was filed from,
// not a view into it. A sender on shard 0 sends a CTM that a holder on shard 1
// stashes; then, window after window with four workers running the shards at
// once, the sender changes its table and sends CTMs in the messages its
// shard's list recycles — the one the stash was filed from first among them.
// The stash must read as first filed in every round; under -race a stash that
// shared a message's memory would be a reported race.
func TestStashCopyAcrossShards(t *testing.T) {
	const shards, workers, rounds = 4, 4, 50
	eng, fleet, end := shardedBatchedFleet(t, 9, shards, workers, 48, 16)
	eng.RunUntil(end.Add(30 * sim.Second))
	var pub, holder *Node
	for _, n := range fleet {
		if pub == nil && n.host.Site.Shard() == 0 && len(n.table.slots) > 0 {
			pub = n
		}
	}
	for _, n := range fleet {
		if holder == nil && pub != nil && n.host.Site.Shard() == 1 && n.ConnectionTo(pub.Addr()) == nil {
			holder = n
		}
	}
	if pub == nil || holder == nil {
		t.Fatal("no unlinked sender and holder on shards 0 and 1; the test would be vacuous")
	}
	// The rounds' CTMs are the only ones taken from shard 0's list while
	// they run.
	for _, n := range fleet {
		n.near.ticker.Stop()
		n.far.ticker.Stop()
		if n.sco != nil {
			n.sco.ticker.Stop()
		}
	}
	// Between runs: the holder stashes a CTM from the sender, whose message
	// then goes back on the sender's list.
	pkt, first := pub.ctmPacket(kindRequest)
	holder.tun.learnCandidates(first)
	want := append([]NeighborInfo(nil), first.Relays()...)
	pub.pool.release(pkt, "filed")
	if len(want) == 0 || holder.tun.stashOf(pub.Addr()) == nil {
		t.Fatalf("the holder filed no stash of %d relay candidates; the test would be vacuous", len(want))
	}

	rewritten, intact := 0, 0 // each written by one shard alone
	start := eng.Now()
	for k := 1; k <= rounds; k++ {
		at := start.Add(sim.Duration(k) * sim.Millisecond)
		eng.Shard(0).At(at, func() {
			// The first candidate reports a load never seen before, and a CTM
			// delivered at its sender carries it.
			pub.table.slots[0].c.peerLoad = int32(1000 + k)
			pkt, m := pub.ctmPacket(kindRequest)
			if m == first && m.relays[0].Load == int32(1000+k) {
				rewritten++
			}
			pkt.Dst, pkt.Mode, pkt.Size = pub.addr, DeliverExact, ctmSize(m)
			pub.routePacket(pkt, pub.addr)
		})
		eng.Shard(1).At(at, func() {
			if st := holder.tun.stashOf(pub.Addr()); st != nil && sameList(st.list(), want) {
				intact++
			}
		})
	}
	eng.RunUntil(start.Add(rounds*sim.Millisecond + sim.Millisecond))
	if !poolDebug && rewritten != rounds {
		t.Fatalf("the stashed message was taken and rewritten in %d of %d rounds; the test would be vacuous", rewritten, rounds)
	}
	if intact != rounds {
		t.Errorf("the stash read as first filed in %d of %d rounds", intact, rounds)
	}
}

// A ring of symmetric-NATed nodes converges to full structured-ring
// consistency by falling back to tunnel edges, and application traffic
// routes across those edges.
func TestSymmetricNATRingUsesTunnels(t *testing.T) {
	r := buildSymmetricRing(t, 21, 3, 8)
	for _, n := range r.nodes {
		if !n.IsRoutable() {
			t.Fatalf("node %s not routable", n.Addr())
		}
	}
	assertRingConsistent(t, r.overlayRig)
	if got := r.totalStat("tunnel.established"); got == 0 {
		t.Fatal("no tunnels established in an all-symmetric ring")
	}
	n, c := r.tunneledNearConn()
	if n == nil {
		t.Fatal("no live tunneled near connection")
	}
	if tr := c.Transport(); tr != "tunnel" {
		t.Fatalf("tunneled conn transport = %q, want tunnel", tr)
	}
	// App traffic must cross the tunnel edge in both directions.
	peer := r.nodeByAddr(c.Peer)
	got := 0
	n.RegisterProto("t", func(src Addr, d AppData) { got++ })
	peer.RegisterProto("t", func(src Addr, d AppData) { got++ })
	n.SendTo(peer.Addr(), DeliverExact, AppData{Proto: "t", Size: 10})
	peer.SendTo(n.Addr(), DeliverExact, AppData{Proto: "t", Size: 10})
	r.s.RunFor(10 * sim.Second)
	if got != 2 {
		t.Fatalf("tunnel traffic: %d/2 packets delivered", got)
	}
}

// Killing the relay a tunnel is currently using must not strand the edge:
// the endpoints fail over to another relay (or re-establish through one)
// and the ring stays consistent.
func TestTunnelRelayFailover(t *testing.T) {
	r := buildSymmetricRing(t, 22, 3, 8)
	n, c := r.tunneledNearConn()
	if n == nil {
		t.Fatal("no tunneled near connection to test")
	}
	peer := c.Peer
	rc := n.bestRelay(c)
	if rc == nil {
		t.Fatal("tunneled conn has no live relay")
	}
	relayNode := r.nodeByAddr(rc.Peer)
	if relayNode == nil {
		t.Fatalf("relay %s is not a rig node", rc.Peer)
	}
	relayNode.Stop()
	r.s.RunFor(2 * sim.Minute)

	if lost := r.totalStat("tunnel.relay_lost") + r.totalStat("tunnel.relay_suspected"); lost == 0 {
		t.Fatal("relay death never detected by tunnel overlord")
	}
	nc := n.ConnectionTo(peer)
	if nc == nil || !nc.Has(StructuredNear) {
		t.Fatalf("near link to %s did not survive relay death (conn=%v)", peer, nc)
	}
	assertRingConsistent(t, r.overlayRig)
	// Traffic still flows between the endpoints.
	pn := r.nodeByAddr(peer)
	got := false
	pn.RegisterProto("t", func(src Addr, d AppData) { got = true })
	n.SendTo(peer, DeliverExact, AppData{Proto: "t", Size: 10})
	r.s.RunFor(10 * sim.Second)
	if !got {
		t.Fatal("traffic lost after relay failover")
	}
}

// When both NATs relax mid-run (symmetric -> full cone), the periodic
// upgrade probe must convert the tunnel to a direct edge in place: the
// relay stamps each frame with the peer's fresh wire endpoint, so upgrade
// linking dials an address that now accepts inbound traffic.
func TestTunnelUpgradesWhenNATRelaxed(t *testing.T) {
	r := buildSymmetricRing(t, 23, 3, 6)
	n, c := r.tunneledNearConn()
	if n == nil {
		t.Fatal("no tunneled near connection to test")
	}
	peer := c.Peer
	for _, a := range []Addr{n.Addr(), peer} {
		nat, ok := r.nats[a]
		if !ok {
			t.Fatalf("tunnel endpoint %s has no NAT — tunnels should only pair NATed nodes", a)
		}
		nat.SetType(natsim.FullCone)
	}
	r.s.RunFor(2 * sim.Minute)

	nc := n.ConnectionTo(peer)
	if nc == nil || !nc.Has(StructuredNear) {
		t.Fatalf("near link to %s lost during upgrade (conn=%v)", peer, nc)
	}
	if nc.Tunneled() {
		t.Fatalf("conn to %s still tunneled after NATs relaxed (relays=%v)", peer, nc.Relays)
	}
	if got := r.totalStat("tunnel.upgraded"); got == 0 {
		t.Fatal("tunnel.upgraded never counted")
	}
	assertRingConsistent(t, r.overlayRig)
}

// A peer that answers a link request addressed to somebody else (a NAT
// rebind handed its endpoint to a new tenant) is a hard reject: the linker
// skips the URI immediately and the give-up reason is "reject".
func TestLinkGiveUpReasonReject(t *testing.T) {
	r := buildRing(t, 24, 2)
	a, b := r.nodes[0], r.nodes[1]
	before := a.Stats.Get("link.giveup.reject")
	// Dial b's real endpoint but name a target that is not b.
	a.startLinker(AddrFromString("nobody-home"), []URI{b.BootstrapURI()}, Shortcut)
	r.s.RunFor(30 * sim.Second)
	if got := a.Stats.Get("link.uri_exhausted.reject"); got == 0 {
		t.Fatal("link.uri_exhausted.reject not counted")
	}
	if got := a.Stats.Get("link.giveup.reject") - before; got != 1 {
		t.Fatalf("link.giveup.reject = %d, want 1", got)
	}
	if got := a.Stats.Get("link.giveup.timeout"); got != 0 {
		t.Fatalf("pure-reject failure counted link.giveup.timeout = %d", got)
	}
}

// addLone starts a node on a fresh public host as a ring of its own: it
// bootstraps off nobody, so it holds only the edges a test gives it or links
// itself.
func (r *overlayRig) addLone(t *testing.T, name string) *Node {
	t.Helper()
	h := r.net.AddHost(name, r.site, r.net.Root(), phys.HostConfig{})
	n := NewNode(h, AddrFromString(name), FastTestConfig())
	if err := n.Start(nil); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	r.nodes = append(r.nodes, n)
	return n
}

// TestRebuiltTunnelEdgeGetsNoStaleProbe: a tunnel edge's upgrade probe is
// the edge's own. An edge dropped for lack of relays takes its armed probe
// with it, so when an edge to the same peer is rebuilt at once, only the new
// edge probes: one probe per interval. (A drop that cancelled the probe by
// looking the peer up would find nothing, since the edge has left the table
// by then, and the old edge would go on probing beside the new one.)
func TestRebuiltTunnelEdgeGetsNoStaleProbe(t *testing.T) {
	r := newOverlayRig(31)
	n := r.addLone(t, "holder")
	peer, relay := AddrFromString("tunnel-peer"), AddrFromString("tunnel-relay")
	old := n.addConnection(peer, phys.Endpoint{}, nil, []Addr{relay}, nil, StructuredNear)
	if !old.Tunneled() || !old.tun.upgrade.Active() {
		t.Fatalf("the tunnel edge %v has no upgrade probe armed", old)
	}
	n.tun.relayLost(relay)
	if n.ConnectionTo(peer) != nil || old.reason != dropNoRelay {
		t.Fatalf("the edge was not dropped for lack of relays (reason %d)", old.reason)
	}
	if old.tun.upgrade.Active() {
		t.Error("the dropped edge's upgrade probe is still armed")
	}
	rebuilt := n.addConnection(peer, phys.Endpoint{}, nil, []Addr{relay}, nil, StructuredNear)
	before := n.Stats.Get("tunnel.upgrade_probes")
	interval := n.cfg.TunnelUpgradeInterval
	const intervals = 2
	r.s.RunFor(intervals*interval + interval/2)
	if n.ConnectionTo(peer) != rebuilt {
		t.Fatal("the rebuilt edge did not last the run; the count would be vacuous")
	}
	if got := n.Stats.Get("tunnel.upgrade_probes") - before; got != intervals {
		t.Errorf("%d upgrade probes in %d intervals of the rebuilt edge, want %d", got, intervals, intervals)
	}
	if old.tun.upgrade.Active() {
		t.Error("the dropped edge re-armed its upgrade probe")
	}
}

// TestRecruitedRelayReapedAfterEarlierEdgeDrops: a recruited relay is marked
// on its Relay link when the link comes up, so nothing that happens to the
// peer while the recruit is pending can lose the mark. Here the recruiter's
// earlier tunnel edge to the relay drops for lack of relays while the Relay
// link is still being made. The link comes up and carries a tunnel edge;
// once that edge goes, the recruiter reaps the idle relay, and the relay —
// the passive end, which holds no tunnel through the link — never does.
func TestRecruitedRelayReapedAfterEarlierEdgeDrops(t *testing.T) {
	r := newOverlayRig(32)
	a, relay := r.addLone(t, "recruiter"), r.addLone(t, "relay")
	target, via := AddrFromString("tunnel-target"), AddrFromString("other-relay")
	// A CTM exchange with the target named the relay among its neighbours;
	// the recruiter holds no edge to any of them, so it recruits the relay.
	a.tun.cands = append(a.tun.cands, candidateStash{peer: target, nrelays: 1})
	a.tun.cands[0].relays[0] = NeighborInfo{Addr: relay.Addr(), URIs: relay.URIs()}
	a.tun.establish(target)
	if _, ok := a.tun.recruiting[relay.Addr()]; !ok {
		t.Fatal("establish recruited nobody")
	}
	a.addConnection(relay.Addr(), phys.Endpoint{}, nil, []Addr{via}, nil, StructuredNear)
	a.tun.relayLost(via)
	if a.ConnectionTo(relay.Addr()) != nil {
		t.Fatal("the earlier tunnel edge to the relay did not drop")
	}
	tc := a.addConnection(target, phys.Endpoint{}, nil, []Addr{relay.Addr()}, nil, StructuredNear)
	r.s.RunFor(sim.Second)
	rc, pc := a.ConnectionTo(relay.Addr()), relay.ConnectionTo(a.Addr())
	if rc == nil || !rc.Has(Relay) || rc.Tunneled() || pc == nil || !pc.Has(Relay) {
		t.Fatalf("the Relay link is not up at both ends: recruiter %v, relay %v", rc, pc)
	}
	a.dropConnection(tc, false, dropIdle)
	r.s.RunFor(sim.Second)
	if c := a.ConnectionTo(relay.Addr()); c != nil {
		t.Errorf("the recruiter kept its idle relay: %v", c)
	}
	if got := a.Stats.Get("tunnel.relay_reaped"); got != 1 {
		t.Errorf("the recruiter reaped %d relays, want 1", got)
	}
	if got := relay.Stats.Get("tunnel.relay_reaped"); got != 0 {
		t.Errorf("the passive end reaped %d relays, want none", got)
	}
}

// tunnelFixture is the relay and URI pool the tunnel-bookkeeping tests draw
// from: six relays, two more than an edge can hold, and a zero, a TCP and
// three UDP observations.
func tunnelFixture() ([]Addr, []URI) {
	relays := make([]Addr, tunnelMaxRelays+2)
	for i := range relays {
		relays[i] = AddrFromString(fmt.Sprintf("relay-%d", i))
	}
	ip := phys.IP(0x0a000001)
	uris := []URI{
		{},
		{Transport: "tcp", EP: phys.Endpoint{IP: ip, Port: 4000}},
		{Transport: "udp", EP: phys.Endpoint{IP: ip, Port: 4001}},
		{Transport: "udp", EP: phys.Endpoint{IP: ip, Port: 4002}},
		{Transport: "udp", EP: phys.Endpoint{IP: ip + 1, Port: 4001}},
	}
	return relays, uris
}

// TestQuickTunnelBookkeepingMatchesOracle runs random sequences of relay
// adds (behind the callers' tunnelMaxRelays check), removes of present and
// absent relays, observations (zero, TCP and repeated URIs), upgrade-list
// builds and in-place upgrade resets on a Connection and on refTunnel, the
// slice-based bookkeeping it replaced, and wants the same relay list,
// observations, upgrade lists and return values after every step. The
// relay list must stay a slice of the tunnel state's array, whose vacated
// slots are zero, and a reset of an edge with an armed upgrade probe must
// cancel it: an edge upgraded in place stops probing.
func TestQuickTunnelBookkeepingMatchesOracle(t *testing.T) {
	relays, uris := tunnelFixture()
	s := sim.New(35)
	var capped, absent, resets, armed int
	f := func(ops []uint16) bool {
		c := &Connection{Peer: AddrFromString("peer")}
		ref := &refTunnel{}
		for step, op := range ops {
			arg := int(op >> 4)
			r, u := relays[arg%len(relays)], uris[arg%len(uris)]
			switch kind := op & 15; {
			case kind < 5:
				if len(c.Relays) >= tunnelMaxRelays || len(ref.relays) >= tunnelMaxRelays {
					if len(c.Relays) != len(ref.relays) {
						t.Logf("step %d: cap check disagrees: %v vs %v", step, c.Relays, ref.relays)
						return false
					}
					capped++
					break
				}
				if got, want := c.addRelay(r), ref.addRelay(r); got != want {
					t.Logf("step %d: addRelay(%v) = %v, oracle %v", step, r, got, want)
					return false
				}
			case kind < 8:
				got, want := c.removeRelay(r), ref.removeRelay(r)
				if got != want {
					t.Logf("step %d: removeRelay(%v) = %v, oracle %v", step, r, got, want)
					return false
				}
				if !want {
					absent++
				}
			case kind < 11:
				c.noteObserved(u)
				ref.noteObserved(u)
			case kind < 13:
				n := len(uris)
				advertised := []URI{u, uris[arg/n%n], uris[arg/n/n%n]}
				if got, want := c.upgradeURIs(advertised), ref.upgradeURIs(advertised); !slices.Equal(got, want) {
					t.Logf("step %d: upgradeURIs(%v) = %v, oracle %v", step, advertised, got, want)
					return false
				}
			case kind < 15:
				if got, want := c.hasRelay(r), ref.hasRelay(r); got != want {
					t.Logf("step %d: hasRelay(%v) = %v, oracle %v", step, r, got, want)
					return false
				}
			default:
				var probe sim.Timer
				if c.tun != nil {
					c.tun.upgrade = s.After(sim.Second, func() {})
					probe = c.tun.upgrade
					armed++
				}
				c.dropTunnel()
				ref.dropTunnel()
				if probe.Active() {
					t.Logf("step %d: the upgrade probe is still armed after the reset", step)
					return false
				}
				resets++
			}
			var observed []URI
			if c.tun != nil {
				observed = c.tun.observed[:c.tun.nobserved]
				if len(c.Relays) > 0 && &c.Relays[0] != &c.tun.relays[0] {
					t.Logf("step %d: Relays is not a slice of the tunnel state's array", step)
					return false
				}
				for _, a := range c.tun.relays[len(c.Relays):] {
					if !a.IsZero() {
						t.Logf("step %d: a vacated relay slot holds %v", step, a)
						return false
					}
				}
			}
			if !slices.Equal(c.Relays, ref.relays) || !slices.Equal(observed, ref.observed) || c.Tunneled() != (len(ref.relays) > 0) {
				t.Logf("step %d (op %#x): relays %v observed %v, oracle %v %v", step, op, c.Relays, observed, ref.relays, ref.observed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(35))}); err != nil {
		t.Fatal(err)
	}
	if capped == 0 || absent == 0 || resets == 0 || armed == 0 {
		t.Fatalf("sequences never hit the cap (%d), an absent remove (%d), a reset (%d) or a reset with a probe armed (%d)", capped, absent, resets, armed)
	}
}

// TestAllocFreeTunnelBookkeeping guards a tunnel edge that already has its
// tunnel state: filling its relay list, emptying it again and recording a
// fresh UDP observation allocate nothing.
func TestAllocFreeTunnelBookkeeping(t *testing.T) {
	relays, uris := tunnelFixture()
	relays, udp := relays[:tunnelMaxRelays], uris[2:]
	c := &Connection{Peer: AddrFromString("peer")}
	c.addRelay(relays[0])
	c.removeRelay(relays[0])
	if c.tun == nil {
		t.Fatal("no tunnel state after the first addRelay")
	}
	k := 0
	allocGuard(t, "tunnel bookkeeping", 0, func() {
		for i := range relays {
			c.addRelay(relays[(k+3*i)%len(relays)])
		}
		if len(c.Relays) != tunnelMaxRelays {
			t.Fatalf("%d relays listed, want %d", len(c.Relays), tunnelMaxRelays)
		}
		for i := range relays {
			c.removeRelay(relays[(k+i)%len(relays)])
		}
		c.noteObserved(udp[k%len(udp)])
		k++
	})
	if len(c.Relays) != 0 || c.tun.nobserved != maxObservedURIs || c.tun.observed[0] != udp[(k-1)%len(udp)] {
		t.Fatalf("relays %v, observations %v: the runs did not do what they claim", c.Relays, c.tun.observed[:c.tun.nobserved])
	}
}
