package brunet

import (
	"slices"
	"sort"

	"wow/internal/sim"
)

// tunnelOverlord manages tunnel edges — Brunet's fallback for peer pairs
// whose NATs defeat hole punching (symmetric↔symmetric and
// symmetric↔port-restricted). When the linker exhausts every URI toward a
// wanted structured-near neighbor, the overlord establishes a tunnel edge
// instead: link-layer traffic to the peer is relayed through mutual
// neighbors learned from the connection tables exchanged in CTMs. The
// resulting Connection registers in the conn table like any other edge, so
// routing, keepalives and ring repair work unchanged.
//
// Tunnels self-maintain:
//   - multi-relay lists fail over instantly (sendTunnel picks the first
//     live relay), and relays are re-learned from incoming frame Via
//     stamps and refreshed from later CTM exchanges;
//   - a dying or suspected relay (close-forwarding's fast-failure signal)
//     triggers pre-emptive relay re-selection, falling back to a CTM
//     re-probe when no alternative is known;
//   - every TunnelUpgradeInterval the overlord routes a CTM to the tunnel
//     peer, re-running bidirectional direct linking with fresh URIs, so
//     the tunnel upgrades in place to a direct edge the moment hole
//     punching becomes possible.
//
// Like the repair overlord, it is event-driven: a node with no tunnels
// costs nothing, and fault-free runs stay deterministic.
type tunnelOverlord struct {
	node *Node
	// cands stashes, per remote peer the node holds no direct edge to, the
	// URIs and connection-table excerpt most recently learned from a CTM
	// exchange with it — the raw material for relay selection. It is a short
	// list in no particular order (stashOf, dropStash): a node rarely holds
	// more than two at a time.
	cands []candidateStash
	// recruiting maps a relay candidate being linked (ConnType Relay) to
	// the tunnel targets waiting on it — the path taken when no mutual
	// neighbor exists yet and one must be recruited first. Made at its
	// first write (establish). Like cands it holds only peers the table does
	// not hold over a direct edge: what an edge keeps lives on the edge.
	recruiting map[Addr][]Addr
}

// candidateStash is the tunnel-relevant content of one CTM exchange with
// peer, held by value in the overlord's list: a copy of the message's relay
// candidates, and its URIs, which are the sender's copy-on-write list, shared
// and never written. A later exchange with the same peer overwrites the
// entry and a direct edge removes it, so readers take what they need within
// the call and keep no stash across calls.
type candidateStash struct {
	peer    Addr
	uris    []URI
	relays  [tunnelMaxRelays]NeighborInfo
	nrelays int
}

// list is the stashed relay candidates.
func (st *candidateStash) list() []NeighborInfo { return st.relays[:st.nrelays] }

// stashOf returns the stash filed for peer, or nil.
func (o *tunnelOverlord) stashOf(peer Addr) *candidateStash {
	for i := range o.cands {
		if o.cands[i].peer == peer {
			return &o.cands[i]
		}
	}
	return nil
}

// dropStash removes the stash filed for peer, if any, moving the last entry
// into its place.
func (o *tunnelOverlord) dropStash(peer Addr) {
	st := o.stashOf(peer)
	if st == nil {
		return
	}
	last := len(o.cands) - 1
	*st = o.cands[last]
	o.cands[last] = candidateStash{}
	o.cands = o.cands[:last]
}

// tunnelMaxRelays caps both the relay list of a tunnel edge and the
// relay-candidate list advertised in CTMs.
const tunnelMaxRelays = 4

// learnCandidates records the URIs and relay candidates of m, a CTM or
// reply from its sender (peer), unless the node holds peer over a direct
// edge: the stash only feeds the tunnel fallback, and onConnection has
// dropped it when that edge came up — a CTM reply arriving after its link
// completed must not file it again. If a tunnel edge to peer is live, any
// newly mutual neighbors extend its relay list — the refresh that lets
// periodic upgrade probes double as relay maintenance.
func (o *tunnelOverlord) learnCandidates(m *ctmMsg) {
	n, peer := o.node, m.From
	if peer == n.addr {
		return
	}
	c, ok := n.lookup(peer)
	if ok && !c.Tunneled() {
		return
	}
	st := o.stashOf(peer)
	if st == nil {
		o.cands = append(o.cands, candidateStash{peer: peer})
		st = &o.cands[len(o.cands)-1]
	}
	st.uris, st.relays, st.nrelays = m.URIs, m.relays, m.nrelays
	if !ok {
		return
	}
	for _, adv := range m.Relays() {
		if len(c.Relays) >= tunnelMaxRelays {
			break
		}
		if adv.Addr == n.addr || adv.Addr == peer {
			continue
		}
		if rc := n.direct(adv.Addr); rc != nil {
			if !rc.loadKnown {
				// Seed the relay scorer with the advertised load until
				// the relay's own pongs speak for it.
				rc.peerLoad = adv.Load
			}
			c.addRelay(adv.Addr)
		}
	}
}

// linkFailed consumes the linker's terminal-failure report. A failed
// direct attempt toward a peer we hold a tunnel to re-arms the upgrade
// probe; a failed attempt toward a wanted structured-near neighbor we hold
// nothing to triggers tunnel establishment — the linker→tunnel fallback
// itself.
func (o *tunnelOverlord) linkFailed(target Addr, t ConnType) {
	n := o.node
	if !n.up {
		return
	}
	if t == Relay {
		// A relay recruit failed: the waiting targets stay unserved until
		// the next CTM exchange refreshes their candidate sets.
		if waiting, ok := o.recruiting[target]; ok {
			delete(o.recruiting, target)
			n.Stats.Add(cTunnelRecruitFailed, int64(len(waiting)))
		}
		if c, ok := n.lookup(target); ok {
			c.recruited = false
		}
		return
	}
	if c, ok := n.lookup(target); ok {
		if c.Tunneled() {
			o.armUpgrade(c)
		}
		return
	}
	if t != StructuredNear {
		return // far/shortcut links are optimizations; no fallback needed
	}
	if n.near == nil || !n.near.wanted(target) {
		return
	}
	o.establish(target)
}

// establish starts a tunnel toward target: through mutual neighbors when
// the candidate exchange found any, otherwise by first recruiting a direct
// Relay-type link to one of the target's neighbors.
func (o *tunnelOverlord) establish(target Addr) {
	n := o.node
	st := o.stashOf(target)
	if st == nil {
		n.Stats.Add(cTunnelNoCandidate, 1)
		return
	}
	var candidates []NeighborInfo
	for _, adv := range st.list() {
		if adv.Addr == n.addr || adv.Addr == target {
			continue
		}
		if n.direct(adv.Addr) != nil {
			candidates = append(candidates, adv)
		}
	}
	// Load-aware selection: lightly loaded relays first, ties in the
	// advertiser's (address) order, capped after sorting so an overloaded
	// early candidate doesn't crowd out idle later ones.
	sort.SliceStable(candidates, func(i, j int) bool {
		return candidates[i].Load < candidates[j].Load
	})
	if len(candidates) > tunnelMaxRelays {
		candidates = candidates[:tunnelMaxRelays]
	}
	if len(candidates) > 0 {
		mutual := make([]Addr, len(candidates))
		for i, adv := range candidates {
			mutual[i] = adv.Addr
		}
		n.Stats.Add(cTunnelAttempts, 1)
		n.launchLinker(target, st.uris, mutual, StructuredNear)
		return
	}
	for _, adv := range st.list() {
		if adv.Addr == n.addr || adv.Addr == target || len(adv.URIs) == 0 {
			continue
		}
		if c, have := n.lookup(adv.Addr); have && c.Tunneled() {
			continue // a tunneled neighbor cannot carry frames (no nesting)
		}
		already := false
		for _, w := range o.recruiting[adv.Addr] {
			if w == target {
				already = true
				break
			}
		}
		if o.recruiting == nil {
			o.recruiting = make(map[Addr][]Addr)
		}
		if !already {
			o.recruiting[adv.Addr] = append(o.recruiting[adv.Addr], target)
		}
		n.Stats.Add(cTunnelRecruit, 1)
		n.startLinker(adv.Addr, adv.URIs, Relay)
		return
	}
	n.Stats.Add(cTunnelNoCandidate, 1)
}

func (o *tunnelOverlord) onConnection(c *Connection) {
	n := o.node
	if waiting, ok := o.recruiting[c.Peer]; ok && !c.Tunneled() {
		// A recruited relay came up: mark it as this node's to reap once
		// idle, and serve the targets waiting on it.
		delete(o.recruiting, c.Peer)
		c.recruited = true
		for _, target := range waiting {
			if _, have := n.lookup(target); have {
				continue
			}
			if n.near != nil && n.near.wanted(target) {
				o.establish(target)
			}
		}
	}
	if c.Tunneled() {
		o.armUpgrade(c)
		return
	}
	// A direct edge confirmed (possibly an in-place tunnel upgrade, whose
	// dropTunnel ended the upgrade probing): the stash is stale, and relays
	// recruited on this peer's behalf may now be idle.
	o.dropStash(c.Peer)
	o.reapRelays()
}

// onDisconnection runs after c has left the table: a dropped tunnel edge's
// probe is cancelled through the edge itself, since a lookup would find
// nothing, or a new edge to the same peer.
func (o *tunnelOverlord) onDisconnection(c *Connection) {
	if c.tun != nil {
		c.tun.upgrade.Cancel()
	}
	if !c.Tunneled() {
		// A direct link died; it may have been carrying tunnels.
		o.relayLost(c.Peer)
	}
	o.reapRelays()
}

// relayLost prunes a dead relay from every tunnel edge using it. A tunnel
// left with no relays cannot carry frames and must not linger looking like
// a direct edge, so it is dropped and a CTM re-probe rebuilds the link —
// as a tunnel through fresh relays, or directly if the world has changed.
// Most nodes hold no tunnel edge: one pass over the slots finds that out
// without the walk's search per step.
func (o *tunnelOverlord) relayLost(dead Addr) {
	n := o.node
	if !slices.ContainsFunc(n.table.slots, func(s slot) bool { return s.c.Tunneled() }) {
		return
	}
	for tc := n.firstConn(allRoles); tc != nil; tc = n.connAfter(tc, allRoles) {
		if !tc.Tunneled() || !tc.removeRelay(dead) {
			continue
		}
		n.Stats.Add(cTunnelRelayLost, 1)
		o.recoverOrDrop(tc)
	}
}

// recoverOrDrop handles a tunnel edge that just lost one relay: remaining
// relays take over seamlessly; otherwise the stash refills the list; as a
// last resort the edge is dropped and a CTM re-probe rebuilds the link in
// whatever form the current NAT situation permits.
func (o *tunnelOverlord) recoverOrDrop(tc *Connection) {
	n := o.node
	if len(tc.Relays) > 0 {
		return
	}
	if o.refill(tc) {
		n.Stats.Add(cTunnelRelayReselected, 1)
		return
	}
	role := tc.mainRole()
	peer := tc.Peer
	n.dropConnection(tc, false, dropNoRelay)
	o.reprobe(peer, role)
}

// noRoute consumes a relay's bounce: the relay has no direct connection to
// the tunnel peer, so every frame sent through it is being dropped. Prune
// it from that edge now — the alternative is waiting for the keepalive to
// time the whole edge out.
func (o *tunnelOverlord) noRoute(relay, to Addr) {
	n := o.node
	tc, ok := n.lookup(to)
	if !ok || !tc.Tunneled() || !tc.removeRelay(relay) {
		return
	}
	n.Stats.Add(cTunnelRelayBounced, 1)
	o.recoverOrDrop(tc)
}

// relaySuspected reacts to a forwarded death verdict about a node serving
// as a tunnel relay: edges with alternatives drop the suspect now (it is
// re-learned from traffic if the verdict was wrong); an edge with no
// alternative keeps it — the suspect may yet answer its fast probe — but
// re-probes for fresh candidates immediately.
func (o *tunnelOverlord) relaySuspected(dead Addr) {
	n := o.node
	for tc := n.firstConn(allRoles); tc != nil; tc = n.connAfter(tc, allRoles) {
		if !tc.Tunneled() || !tc.hasRelay(dead) {
			continue
		}
		if len(tc.Relays) > 1 {
			tc.removeRelay(dead)
			n.Stats.Add(cTunnelRelaySuspected, 1)
			continue
		}
		o.reprobe(tc.Peer, tc.mainRole())
	}
}

// refill restocks a tunnel edge's relay list from the stashed candidate
// set; reports whether any relay is now listed.
func (o *tunnelOverlord) refill(tc *Connection) bool {
	n := o.node
	st := o.stashOf(tc.Peer)
	if st == nil {
		return false
	}
	for _, adv := range st.list() {
		if len(tc.Relays) >= tunnelMaxRelays {
			break
		}
		if adv.Addr == n.addr || adv.Addr == tc.Peer {
			continue
		}
		if n.direct(adv.Addr) != nil {
			tc.addRelay(adv.Addr)
		}
	}
	return len(tc.Relays) > 0
}

// reprobe routes a CTM to peer to refresh URIs and relay candidates; the
// resulting bidirectional linking re-establishes the edge in whatever form
// the current NAT situation permits.
func (o *tunnelOverlord) reprobe(peer Addr, t ConnType) {
	n := o.node
	n.Stats.Add(cTunnelReprobe, 1)
	n.sendCTM(peer, t, DeliverExact, Zero)
}

// armUpgrade schedules the next direct-link upgrade probe for a tunnel
// edge. The probe is a CTM to the tunnel peer: both sides then re-run
// direct linking with fresh URIs (the hole-punching dance), and a success
// upgrades the connection in place. Probing repeats every interval while
// the edge stays tunneled and stops the moment it upgrades. The timer is
// the edge's (tunnelState.upgrade): dropTunnel and onDisconnection cancel
// it, so while the node runs this overlord it only fires on a live tunnel
// edge.
func (o *tunnelOverlord) armUpgrade(c *Connection) {
	n, t := o.node, c.tun
	if t.upgrade.Active() {
		return
	}
	t.upgrade = n.sim.After(n.cfg.TunnelUpgradeInterval, func() {
		t.upgrade = sim.Timer{}
		if !n.up || n.tun != o {
			return
		}
		n.Stats.Add(cTunnelUpgradeProbes, 1)
		o.armUpgrade(c)
		n.sendCTM(c.Peer, c.mainRole(), DeliverExact, Zero)
	})
}

// reapRelays drops the Relay role from connections no tunnel edge, active
// tunnel-mode linker, or pending recruit references any more — recruited
// relays exist only to carry frames and are not kept alive idle. Only
// links this node itself recruited (Connection.recruited) are eligible:
// the passive end of a Relay link never references it and must leave
// teardown to the recruiter — so with no recruited edge in the table there
// is nothing to reap, which is the case on every connection event of a
// tunnel-free node. The drop loop walks in address order for determinism.
func (o *tunnelOverlord) reapRelays() {
	n := o.node
	if !slices.ContainsFunc(n.table.slots, func(s slot) bool { return s.c.recruited }) {
		return
	}
	relay := maskOf(Relay)
	for c := n.firstConn(relay); c != nil; c = n.connAfter(c, relay) {
		if c.recruited && !o.relayInUse(c.Peer) {
			c.recruited = false
			n.Stats.Add(cTunnelRelayReaped, 1)
			n.dropConnRole(c, Relay, dropIdle)
		}
	}
}

// relayInUse reports whether r is a pending recruit or relays a tunnel edge
// or an active tunnel-mode linker.
func (o *tunnelOverlord) relayInUse(r Addr) bool {
	if _, pending := o.recruiting[r]; pending {
		return true
	}
	for _, lk := range o.node.linkers {
		if slices.Contains(lk.relays, r) {
			return true
		}
	}
	return slices.ContainsFunc(o.node.table.slots, func(s slot) bool { return s.c.hasRelay(r) })
}
