package brunet

import (
	"fmt"
	"slices"
	"strings"

	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/trace"
)

// Connection is an established overlay link to a peer. A single physical
// flow may serve several roles (a structured-near link can also be a
// shortcut); Types records the set. Idle connections are kept alive by
// pings with retransmission and exponential backoff; unresponded pings
// mark the connection dead and it is discarded (§IV-B).
type Connection struct {
	// Choosing a connection and sending on it read the fields down to
	// Relays and nothing else; declared first, they are the struct's
	// first 64 bytes (TestHotFieldsLayout pins it).
	Peer Addr
	// EP is the peer's working physical endpoint — the URI that
	// survived the linking protocol's trials.
	EP     phys.Endpoint
	roles  roleMask
	closed bool
	// Stream is the TCP-transport link carrying this connection, nil
	// for UDP-transport connections (§IV-A: "connections between Brunet
	// nodes are abstracted and may operate over any transport").
	Stream *phys.Stream
	// Relays, when non-empty, marks this a tunnel edge: no physical path
	// to the peer exists, and every message is wrapped in a tunnelFrame
	// and relayed through the first live relay in the list. The list is
	// kept sorted and holds at most tunnelMaxRelays; the tunnel overlord
	// adds relays learned from traffic and CTM exchanges and prunes dead
	// ones. It is a slice of tun's array.
	Relays []Addr

	// The second line, bytes 64–127, is the keepalive plane's: touch and a
	// keepalive step (keepaliveFired, pingTick, pingTimeout, setDue) read
	// and write these fields and, of the first line, closed — a step that
	// pings reads the first line anyway to send (TestHotFieldsLayout pins
	// them here).
	//
	// node is the owning node. The node's keepalive timer carries the
	// connection it is armed for as its argument, and its callback reaches
	// the node through this field (no closure).
	node      *Node
	lastHeard sim.Time
	// due is the place in the event order of the connection's next
	// keepalive step (dueTimeout tells which): the key its own event would
	// have had, reserved when the step is set (Node.setDue).
	due sim.Key
	// pingWait is the deadline the armed ping round is waiting out; each
	// resend doubles it.
	pingWait sim.Duration
	awaiting uint64 // outstanding ping seq; 0 = none
	// pingSentAt stamps the departure of the outstanding ping round.
	pingSentAt sim.Time
	pingRetry  int32
	// timedOut marks that at least one ping deadline actually expired in
	// the current round (fastProbe inflates pingRetry without one);
	// traffic arriving with it set counts as a premature timeout.
	timedOut bool
	// dueTimeout marks due as a ping round's deadline (pingTimeout) rather
	// than the next tick (pingTick).
	dueTimeout bool
	// suspected marks a connection under a fast probe after a forwarded
	// death verdict: a pong clears it as a false suspicion, a timeout
	// confirms it.
	suspected bool

	// tun is what only a tunnel edge keeps, made by the edge's first
	// addRelay and dropped with Relays when the edge upgrades in place;
	// nil on every direct edge.
	tun *tunnelState
	// URIs is the peer's last advertised URI list, kept for status
	// gossip and relinking.
	URIs []URI
	// srtt/rttvar are the Jacobson estimators fed by keepalive RTT
	// samples (Karn's rule: retransmitted rounds are never sampled);
	// haveRTT marks the first sample. They drive the adaptive ping
	// deadline and the tunnel-relay score.
	srtt   sim.Duration
	rttvar sim.Duration
	// peerLoad is the peer's last advertised relay load (pongs, or a CTM
	// NeighborInfo before the first pong); loadKnown marks a first-hand
	// pong value, which third-party adverts never overwrite.
	peerLoad  int32
	haveRTT   bool
	loadKnown bool
	// recruited marks a Relay link this node recruited for a tunnel (set
	// when the recruit's link comes up): only the recruiter reaps an idle
	// relay, because the passive end holds no tunnel through it and would
	// tear the link down while the recruiter still depends on it. The mark
	// goes away with the edge.
	recruited bool
	// reason records why dropConnection tore the connection down,
	// readable by onDisconnection callbacks — the repair overlord re-links
	// only involuntary losses.
	reason dropReason
}

// tunnelState is a tunnel edge's own bookkeeping, kept out of Connection
// so that a direct edge — nearly every edge — does not carry it.
type tunnelState struct {
	// relays backs Connection.Relays.
	relays [tunnelMaxRelays]Addr
	// observed holds the peer's freshest relay-stamped physical endpoints,
	// the first nobserved of them, most recent first. Tunnel endpoints
	// never see each other's wire addresses directly; these observations —
	// current as of the last frame — are what upgrade attempts dial first,
	// because the peer's *advertised* URIs go stale the moment its NAT
	// re-binds or relaxes.
	observed  [maxObservedURIs]URI
	nobserved uint8
	// activeRelay anchors the edge's relay hysteresis: the relay the last
	// frame used, kept until it dies or a challenger beats it by more than
	// relayHysteresis.
	activeRelay Addr
	// upgrade is the edge's armed direct-link upgrade probe (armUpgrade),
	// cancelled with the state when the edge upgrades in place or drops.
	upgrade sim.Timer
}

// tunnel returns c's tunnel state, making it on first use.
func (c *Connection) tunnel() *tunnelState {
	if c.tun == nil {
		c.tun = &tunnelState{}
	}
	return c.tun
}

// Has reports whether the connection serves the given role.
func (c *Connection) Has(t ConnType) bool { return c.roles&maskOf(t) != 0 }

// observeRTT folds one clean round-trip sample into the estimators:
// the standard Jacobson update (srtt ← 7/8·srtt + 1/8·rtt,
// rttvar ← 3/4·rttvar + 1/4·|srtt − rtt|), initialized from the first
// sample as srtt = rtt, rttvar = rtt/2.
func (c *Connection) observeRTT(rtt sim.Duration) {
	if rtt < 0 {
		return
	}
	if !c.haveRTT {
		c.srtt, c.rttvar, c.haveRTT = rtt, rtt/2, true
		return
	}
	diff := c.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

// Types lists the connection's roles in sorted order.
func (c *Connection) Types() []ConnType {
	out := make([]ConnType, 0, numConnTypes)
	for t := ConnType(0); int(t) < numConnTypes; t++ {
		if c.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// structured reports whether the connection carries ring-routing roles.
func (c *Connection) structured() bool { return c.roles&structuredRoles != 0 }

// mainRole is the connection's most load-bearing structured role, the one a
// re-link or a re-probe asks for (StructuredNear when it has none).
func (c *Connection) mainRole() ConnType {
	switch {
	case c.Has(StructuredNear):
		return StructuredNear
	case c.Has(StructuredFar):
		return StructuredFar
	case c.Has(Shortcut):
		return Shortcut
	}
	return StructuredNear
}

// Tunneled reports whether this is a tunnel edge (no direct physical
// path; frames relayed through mutual neighbors).
func (c *Connection) Tunneled() bool { return len(c.Relays) > 0 }

// Transport names the connection's link transport.
func (c *Connection) Transport() string {
	if c.Tunneled() {
		return "tunnel"
	}
	if c.Stream != nil {
		return "tcp"
	}
	return "udp"
}

// dropTunnel forgets the tunnel state of an edge upgraded in place to a
// direct one: its relays, its observations and its upgrade probe go
// together.
func (c *Connection) dropTunnel() {
	if c.tun != nil {
		c.tun.upgrade.Cancel()
	}
	c.Relays, c.tun = nil, nil
}

// hasRelay reports whether r is in the connection's relay list.
func (c *Connection) hasRelay(r Addr) bool {
	return slices.Contains(c.Relays, r)
}

// addRelay inserts r into the sorted relay list; reports whether new. A
// full list refuses it: the callers check tunnelMaxRelays first.
func (c *Connection) addRelay(r Addr) bool {
	k := len(c.Relays)
	if k == tunnelMaxRelays || c.hasRelay(r) {
		return false
	}
	t := c.tunnel()
	i := k
	for i > 0 && r.Less(t.relays[i-1]) {
		i--
	}
	copy(t.relays[i+1:k+1], t.relays[i:k])
	t.relays[i] = r
	c.Relays = t.relays[:k+1]
	return true
}

// removeRelay deletes r from the relay list; reports whether present.
func (c *Connection) removeRelay(r Addr) bool {
	i := slices.Index(c.Relays, r)
	if i < 0 {
		return false
	}
	k := len(c.Relays) - 1
	copy(c.Relays[i:], c.Relays[i+1:])
	c.Relays[k] = Addr{}
	c.Relays = c.Relays[:k]
	return true
}

// maxObservedURIs bounds a tunnel edge's relay-stamped endpoint history.
const maxObservedURIs = 2

// noteObserved records a relay-stamped observation of the tunnel peer's
// current wire endpoint, most recent first. TCP observations are skipped
// (an ephemeral outbound-stream port is useless to dial back).
func (c *Connection) noteObserved(u URI) {
	if u.IsZero() || u.Transport == "tcp" {
		return
	}
	t := c.tunnel()
	// Shift the entries in front of u's old slot — or, for a new u, all of
	// them, the oldest falling off a full history — back by one.
	i := slices.Index(t.observed[:t.nobserved], u)
	if i == 0 {
		return
	}
	if i < 0 {
		if t.nobserved < maxObservedURIs {
			t.nobserved++
		}
		i = int(t.nobserved) - 1
	}
	copy(t.observed[1:i+1], t.observed[:i])
	t.observed[0] = u
}

// upgradeURIs builds the trial list for a direct-link upgrade attempt:
// the freshest relay-stamped observations first, then the peer's own
// advertised list, deduplicated.
func (c *Connection) upgradeURIs(advertised []URI) []URI {
	if c.tun == nil || c.tun.nobserved == 0 {
		return advertised
	}
	obs := c.tun.observed[:c.tun.nobserved]
	out := append(make([]URI, 0, len(obs)+len(advertised)), obs...)
	for _, u := range advertised {
		if !slices.Contains(out, u) {
			out = append(out, u)
		}
	}
	return out
}

// String renders "peer[types]@transport:endpoint".
func (c *Connection) String() string {
	names := make([]string, 0, numConnTypes)
	for _, t := range c.Types() {
		names = append(names, t.String())
	}
	return fmt.Sprintf("%s[%s]@%s:%s", c.Peer, strings.Join(names, ","), c.Transport(), c.EP)
}

// addConnection records a new connection or adds a role to an existing
// one, and returns it. stream is non-nil for TCP-transport links; non-empty
// relays make a new connection a tunnel edge relayed through them. A direct
// handshake upgrades an existing tunnel edge in place; a tunnel handshake
// never downgrades an existing direct edge: its relays are ignored and only
// the role is added (the peer's tunnel state is transient and its own
// upgrade probe will converge on the direct edge).
func (n *Node) addConnection(peer Addr, ep phys.Endpoint, stream *phys.Stream, relays []Addr, uris []URI, t ConnType) *Connection {
	c, ok := n.lookup(peer)
	switch {
	case !ok:
		c = &Connection{
			Peer:      peer,
			EP:        ep,
			Stream:    stream,
			node:      n,
			lastHeard: n.sim.Now(),
		}
		for _, r := range relays {
			c.addRelay(r)
		}
		n.tableInsert(c)
		n.Stats.Add(cConnCreated, 1)
		if c.Tunneled() {
			n.Stats.Add(cTunnelEstablished, 1)
		}
		n.watchStream(c)
		n.schedulePing(c)
	case len(relays) > 0:
		if c.Tunneled() {
			for _, r := range relays {
				c.addRelay(r)
			}
		}
		c.lastHeard = n.sim.Now()
	default:
		// Relink: the peer may have moved (VM migration assigns new
		// physical endpoints); adopt the fresh endpoint/transport.
		c.EP = ep
		if stream != nil && stream != c.Stream {
			c.Stream = stream
			n.watchStream(c)
		}
		if c.Tunneled() {
			// A direct wire confirmed: the tunnel upgrades in place
			// to a direct edge — roles, table slot and keepalive
			// state all carry over.
			c.dropTunnel()
			n.Stats.Add(cTunnelUpgraded, 1)
		}
		c.lastHeard = n.sim.Now()
	}
	if len(uris) > 0 {
		c.URIs = uris
	}
	n.addRole(c, t)
	n.notifyConn(c)
	return c
}

// watchStream ties a TCP-transport connection's fate to its stream: when
// the kernel connection dies, the overlay link dies with it immediately —
// one advantage of the TCP transport over UDP's ping-timeout detection.
func (n *Node) watchStream(c *Connection) {
	if c.Stream == nil {
		return
	}
	st := c.Stream
	st.OnClose(func(err error) {
		if !c.closed && c.Stream == st {
			n.Stats.Add(cConnStreamClosed, 1)
			n.dropConnection(c, false, dropStream)
		}
	})
}

// sendConn transmits a link-layer or overlay message over the
// connection's transport. Messages for a tunnel edge are wrapped in a
// tunnelFrame and handed to the first live relay.
func (n *Node) sendConn(c *Connection, size int, payload any) {
	if !n.up || c.closed {
		n.flightDrop(payload, trace.OutcomeConnClosed)
		return
	}
	if c.Tunneled() {
		n.sendTunnel(c, size, payload)
		return
	}
	n.transmit(c.EP, c.Stream, size, payload)
}

// unpool takes a pooled message — packet (with a CTM's message:
// OverlayPacket.Unpool), link message, ping or frame, and a frame's Inner —
// out of the pools' hands before a stream carries it: the
// stream's retransmission buffer keeps the pointer until the peer's ACK
// arrives, which can be after the far end has released the object, and reads
// its trace context if the stream is torn down first
// (phys.Stream.flightDiscardBuffers). A recycled object would then speak for
// another packet, so one that has been on a stream is never recycled: its
// release leaves it, a frame blank, to the garbage collector.
func unpool(payload any) {
	if m, ok := payload.(interface{ Unpool() }); ok {
		m.Unpool()
	}
	if f, ok := payload.(*tunnelFrame); ok {
		unpool(f.Inner)
	}
}

// Relay selection. relayLoadPenalty converts a tunnel relay's advertised
// load (tunnel pairs currently carried, piggybacked on pongs and CTM
// NeighborInfo) into score time. relayHysteresis is how much better a
// challenger relay's score must be before a tunnel edge re-points away from
// a live active relay, so flapping links don't thrash re-selection; failover
// away from a dead relay is always instant.
const (
	relayLoadPenalty = 25 * sim.Millisecond
	relayHysteresis  = 50 * sim.Millisecond
)

// relayScore ranks one relay candidate for a tunnel edge: the observed
// smoothed RTT to it (PingTimeout standing in before the first sample)
// plus relayLoadPenalty per tunnel pair the relay advertises it already
// carries. Lower is better.
func (n *Node) relayScore(rc *Connection) sim.Duration {
	rtt := n.cfg.PingTimeout
	if rc.haveRTT {
		rtt = rc.srtt
	}
	return rtt + sim.Duration(rc.peerLoad)*relayLoadPenalty
}

// bestRelay picks the relay to carry c's next frame: the lowest-scoring
// relay reachable over a direct (non-tunneled) connection — tunnels never
// nest. Hysteresis keeps the edge on its current relay unless a challenger
// beats it by more than relayHysteresis, so score wobble on flapping links
// doesn't thrash re-selection; a dead active relay fails over to the
// next-ranked one instantly. Score ties resolve to the
// lowest-addressed relay (c.Relays is sorted), which is exactly the old
// first-live-wins choice when no RTT or load information distinguishes
// the candidates.
func (n *Node) bestRelay(c *Connection) *Connection {
	var best, active *Connection
	var bestScore, activeScore sim.Duration
	for _, r := range c.Relays {
		rc := n.direct(r)
		if rc == nil {
			continue
		}
		s := n.relayScore(rc)
		if best == nil || s < bestScore {
			best, bestScore = rc, s
		}
		if r == c.tun.activeRelay {
			active, activeScore = rc, s
		}
	}
	if best == nil {
		return nil
	}
	if active != nil && activeScore <= bestScore+relayHysteresis {
		return active
	}
	if active == nil && !c.tun.activeRelay.IsZero() {
		n.Stats.Add(cTunnelRelayFailover, 1)
	} else if active != nil {
		n.Stats.Add(cTunnelRelaySwitched, 1)
	}
	c.tun.activeRelay = best.Peer
	return best
}

// sendTunnel sends payload in a tunnelFrame to the best-scoring live relay
// for forwarding to the tunnel peer.
func (n *Node) sendTunnel(c *Connection, size int, payload any) {
	rc := n.bestRelay(c)
	if rc == nil {
		n.Stats.Add(cTunnelNoRelay, 1)
		n.flightDrop(payload, trace.OutcomeNoRelay)
		return
	}
	n.sendFrame(rc, c.Peer, size, payload)
}

// sendFrame originates a tunnel frame: it takes a frame from the shard's
// list, addresses it to the tunnel peer at the far end with payload inside,
// and hands it to the relay behind the direct connection rc.
func (n *Node) sendFrame(rc *Connection, peer Addr, size int, payload any) {
	f := n.pool.frames.Get()
	f.From, f.To, f.Via, f.Size, f.Inner = n.addr, peer, rc.Peer, size, payload
	n.sendConn(rc, tunnelHdrSize+size, f)
}

// dropConnection removes a connection entirely, with an optional close
// message to the peer.
func (n *Node) dropConnection(c *Connection, sendClose bool, reason dropReason) {
	if c.closed {
		return
	}
	c.closed = true
	c.reason = reason
	n.tableRemove(c)
	if c == n.armed {
		n.rearm()
	}
	n.uncountRoles(c)
	n.Stats.Add(cConnDropped+int(reason), 1)
	if sendClose && n.up {
		// A tunnel edge has neither stream nor endpoint: its close goes to
		// the zero endpoint and is lost there, a known defect; the peer
		// finds out at its next keepalive.
		n.transmit(c.EP, c.Stream, pingMsgSize, n.closing())
	}
	if c.Stream != nil {
		c.Stream.Close()
	}
	n.notifyDisc(c)
}

// ConnectionTo returns the connection to peer, or nil.
func (n *Node) ConnectionTo(peer Addr) *Connection {
	c, _ := n.lookup(peer)
	return c
}

// direct returns the connection to peer if it is a direct edge, or nil. A
// connection in the table is never closed: dropConnection takes it out in
// the step that closes it, and Stop empties the table.
func (n *Node) direct(peer Addr) *Connection {
	if c, ok := n.lookup(peer); ok && !c.Tunneled() {
		return c
	}
	return nil
}

// touch refreshes liveness state on any traffic from the peer. Traffic
// arriving while the detector had escalated (a ping round in retry, or a
// suspect verdict under fast probe) counts against it as a false
// suspicion: the peer was demonstrably alive.
func (n *Node) touch(c *Connection) {
	if c.suspected {
		c.suspected = false
		n.Stats.Add(cLivenessFalseSuspect, 1)
	}
	if c.timedOut {
		c.timedOut = false
		n.Stats.Add(cLivenessPrematureTimeout, 1)
	}
	c.lastHeard = n.sim.Now()
	c.pingRetry = 0
	c.awaiting = 0
}

// handlePong consumes a keepalive answer: an untouched round (no resend —
// Karn's rule) whose seq matches yields a clean RTT sample, and the pong
// carries the peer's current relay load.
func (n *Node) handlePong(c *Connection, m *pingMsg) {
	if m.Seq != 0 && m.Seq == c.awaiting && c.pingRetry == 0 {
		c.observeRTT(n.sim.Now().Sub(c.pingSentAt))
	}
	c.peerLoad = int32(m.Load)
	c.loadKnown = true
	n.touch(c)
}

// The adaptive ping deadline: rtoK is the rttvar multiplier k, and
// [rtoMin, rtoMax] clamps the result. The floor guards against suspicion
// storms on very fast links, the ceiling bounds detection latency on very
// jittery ones.
const (
	rtoK   = 4
	rtoMin = 500 * sim.Millisecond
	rtoMax = 20 * sim.Second
)

// pingDeadline derives the wait for one ping round: the adaptive RTO
// srtt + rtoK·rttvar clamped to [rtoMin, rtoMax] when Config.AdaptiveRTO
// is set and a sample exists, the fixed PingTimeout otherwise.
func (n *Node) pingDeadline(c *Connection) sim.Duration {
	if !n.cfg.AdaptiveRTO || !c.haveRTT {
		return n.cfg.PingTimeout
	}
	return min(max(c.srtt+rtoK*c.rttvar, rtoMin), rtoMax)
}

// schedulePing sets a connection's next keepalive tick.
func (n *Node) schedulePing(c *Connection) {
	jitter := n.cfg.PingInterval / 10
	wait := n.cfg.PingInterval + sim.Duration(n.rand().Int63n(int64(jitter)+1))
	n.setDue(c, n.sim.Now().Add(wait), false)
}

// The keepalive plane runs on one timer per node: the pings of §IV-B need a
// deadline per link, not a pending event per link. Each connection keeps the
// key of its next step, reserved where the step's own event would have been
// scheduled; the node's timer is armed at the earliest of them (armed), and a
// firing serves that one connection, whose step sets its next key and so
// re-arms the timer at whichever key is then the earliest. Every step fires at
// the key its own event would have had, so the pop order is the one a timer
// per connection gives, with one event pending per node instead.

// setDue gives c its next keepalive step, due at t: the deadline of a ping
// round when timeout is set, the next tick otherwise. The node's timer moves
// only when c is the connection it is armed for or c now comes first.
func (n *Node) setDue(c *Connection, t sim.Time, timeout bool) {
	c.due = n.sim.Reserve(t)
	c.dueTimeout = timeout
	switch {
	case c.closed: // dropped, or its node stopped: nothing to arm
	case c == n.armed:
		n.rearm()
	case n.armed == nil || c.due.Before(n.armed.due):
		n.arm(c)
	}
}

// rearm arms the node's keepalive timer at the earliest due key of its
// connections, or leaves it unarmed when the table is empty.
func (n *Node) rearm() {
	var first *Connection
	for _, s := range n.table.slots {
		if first == nil || s.c.due.Before(first.due) {
			first = s.c
		}
	}
	n.arm(first)
}

// arm moves the node's keepalive timer to c's due key; nil leaves it
// unarmed.
func (n *Node) arm(c *Connection) {
	n.keepalive.Cancel()
	n.armed = c
	if c != nil {
		n.keepalive = n.sim.AtKey(c.due, keepaliveFired, c)
	}
}

// keepaliveFired is the node's keepalive timer callback: a package-level
// function taking the armed connection, so arming allocates nothing (see
// sim.AtKey). The step it runs sets the connection's next key or drops the
// connection, and either re-arms the timer.
func keepaliveFired(arg any) {
	c := arg.(*Connection)
	if c.dueTimeout {
		c.node.pingTimeout(c)
	} else {
		c.node.pingTick(c)
	}
}

// sendPing transmits one keepalive ping carrying the connection's
// outstanding seq.
func (n *Node) sendPing(c *Connection) {
	m := n.pool.pings.Get()
	m.From, m.Seq = n.addr, c.awaiting
	n.sendConn(c, pingMsgSize, m)
}

// pingTick sends a keepalive ping and arms the retry/backoff machinery.
func (n *Node) pingTick(c *Connection) {
	if c.closed || !n.up {
		return
	}
	// Fresh traffic counts as liveness; skip the ping round.
	if n.sim.Now().Sub(c.lastHeard) < n.cfg.PingInterval/2 {
		n.schedulePing(c)
		return
	}
	n.pingSeq++
	c.awaiting = n.pingSeq
	c.pingRetry = 0
	c.pingSentAt = n.sim.Now()
	n.sendPing(c)
	n.Stats.Add(cPingSent, 1)
	n.armPingTimeout(c, n.pingDeadline(c))
}

// armPingTimeout waits for a pong, up to wait.
func (n *Node) armPingTimeout(c *Connection, wait sim.Duration) {
	c.pingWait = wait
	n.setDue(c, n.sim.Now().Add(wait), true)
}

// pingTimeout runs when a ping round's deadline expires: it resends with
// exponential backoff, and after PingRetries declares the connection dead —
// the mechanism that eventually clears state for crashed or migrated peers.
// The death verdict feeds the liveness counters: elapsed time since the
// peer was last heard (detection latency, in ms) and whether the verdict
// confirmed a forwarded suspicion.
func (n *Node) pingTimeout(c *Connection) {
	if c.closed || c.awaiting == 0 {
		n.schedulePing(c)
		return
	}
	if int(c.pingRetry) >= n.cfg.PingRetries {
		n.Stats.Add(cPingDead, 1)
		n.Stats.Add(cLivenessDetectMs, int64(n.sim.Now().Sub(c.lastHeard)/sim.Millisecond))
		if c.suspected {
			n.Stats.Add(cLivenessSuspectConfirmed, 1)
		}
		n.dropConnection(c, false, dropTimeout)
		n.forwardClose(c.Peer)
		return
	}
	c.pingRetry++
	c.timedOut = true
	n.pingSeq++
	c.awaiting = n.pingSeq
	n.sendPing(c)
	n.Stats.Add(cPingResent, 1)
	n.armPingTimeout(c, c.pingWait*2)
}

// suspectRetries is the ping-retry budget left after a dead-link
// notification (close-forwarding).
const suspectRetries = 1

// fastProbe pings a suspect connection immediately with a reduced retry
// budget (suspectRetries) — the fast-detection path taken when a
// neighbor forwards a death verdict. A live peer answers and the probe
// costs one ping; a dead one is declared in roughly
// deadline·(2^(suspectRetries+1)−1) instead of waiting out the full
// PingInterval + deadline·(2^(PingRetries+1)−1) keepalive cycle, where
// the deadline is pingDeadline's fixed or adaptive value.
func (n *Node) fastProbe(c *Connection) {
	if c.closed || !n.up || c.awaiting != 0 {
		return // dead already, or a ping round is in flight
	}
	c.pingRetry = int32(max(n.cfg.PingRetries-suspectRetries, 0))
	c.suspected = true
	n.pingSeq++
	c.awaiting = n.pingSeq
	c.pingSentAt = n.sim.Now()
	n.sendPing(c)
	n.Stats.Add(cPingFastProbe, 1)
	n.armPingTimeout(c, n.pingDeadline(c))
}

// forwardClose tells structured neighbors that the link to dead just timed
// out here, so peers that also hold one probe it immediately instead of
// each independently burning its own keepalive cycle (close-forwarding,
// the fast-failure-detection half of ring repair).
func (n *Node) forwardClose(dead Addr) {
	if !n.up {
		return
	}
	// One boxed message for every neighbor, sent in the table's address
	// order, which keeps the send order — and with it the substrate's RNG
	// draws — a function of the seed.
	var msg any = suspectMsg{From: n.addr, Dead: dead}
	for _, s := range n.table.slots {
		if !s.c.structured() {
			continue
		}
		n.sendConn(s.c, pingMsgSize, msg)
		n.Stats.Add(cCloseForwarded, 1)
	}
}
