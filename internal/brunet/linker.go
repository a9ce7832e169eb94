package brunet

import (
	"wow/internal/phys"
	"wow/internal/sim"
)

// linker runs one side of the linking protocol (§IV-B2): it works through
// the target's URI list one entry at a time, resending link requests with
// exponential backoff, and moving to the next URI after a retry budget is
// exhausted. The paper notes the conservative constants lead to delays of
// ~150s before giving up on a bad URI — exactly the mechanism behind the
// slow UFL-UFL shortcut formation in Figure 4 — and those constants are
// Config's LinkResend and LinkRetries and the linkBackoff factor here.
//
// Linkers are pooled per shard (shardPool): launchLinker takes one from the
// list and finish puts it back, and nothing reads a linker after finish — the
// resend timer is cancelled there, and a TCP attempt's OnClose tells its own
// linker from the next one to take the object by the stream it holds.
type linker struct {
	node   *Node
	target Addr
	ctype  ConnType
	uris   []URI
	token  uint64

	// relays switches the linker to tunnel mode: instead of dialing the
	// target's URIs, each link request is wrapped in a tunnelFrame and
	// sent through one relay at a time (uriIdx indexes relays).
	relays []Addr
	sim.Pooled

	uriIdx  int
	attempt int
	timer   sim.Timer
	stream  *phys.Stream // active TCP-transport attempt, if any

	// failTimeout / failReject classify the trial failures seen so far,
	// for the terminal failure taxonomy reported to the node.
	failTimeout int
	failReject  int
}

// tunnelMode reports whether the linker handshakes through relays.
func (lk *linker) tunnelMode() bool { return len(lk.relays) > 0 }

// startLinker begins a direct linking attempt toward target using its URI
// list.
func (n *Node) startLinker(target Addr, uris []URI, t ConnType) {
	n.launchLinker(target, uris, nil, t)
}

// launchLinker begins a linking attempt toward target: through relays when
// there are any (a tunnel-mode handshake), by dialing uris otherwise. It is a
// no-op when a direct edge already serves the role (a tunnel edge does not
// count: a direct handshake upgrades it in place) or a linker for the target
// is active: the outstanding attempt will complete (or fail) on its own.
func (n *Node) launchLinker(target Addr, uris []URI, relays []Addr, t ConnType) {
	if target == n.addr {
		return
	}
	if len(uris) == 0 && len(relays) == 0 {
		return
	}
	if c := n.direct(target); c != nil && c.Has(t) {
		return // already linked in this role
	}
	if _, active := n.linkers[target]; active {
		return
	}
	n.tokenSeq++
	lk := n.pool.linkers.Get()
	lk.node, lk.target, lk.ctype, lk.token = n, target, t, n.tokenSeq
	lk.uris, lk.relays = trialOrder(uris, n.cfg.Transport), relays
	n.linkers[target] = lk
	n.Stats.Add(cLinkAttempts, 1)
	lk.sendRequest()
}

// trialOrder puts the URIs of the node's own preferred transport first
// (stable, so the paper's public-before-private order is preserved within
// each transport). A TCP-preferring node behind a UDP-hostile firewall thus
// dials streams outward immediately instead of burning the full retry
// budget on unreachable UDP endpoints. A list already in that order — what
// a peer of the same transport advertises — is returned as it is, not
// copied: the linker only reads it.
func trialOrder(uris []URI, own string) []URI {
	foreign, inOrder := false, true
	for _, u := range uris {
		if u.Transport != own {
			foreign = true
		} else if foreign {
			inOrder = false
			break
		}
	}
	if inOrder {
		return uris
	}
	ordered := make([]URI, 0, len(uris))
	for _, u := range uris {
		if u.Transport == own {
			ordered = append(ordered, u)
		}
	}
	for _, u := range uris {
		if u.Transport != own {
			ordered = append(ordered, u)
		}
	}
	return ordered
}

// trialCount is the number of trial slots: relays in tunnel mode, URIs
// otherwise.
func (lk *linker) trialCount() int {
	if lk.tunnelMode() {
		return len(lk.relays)
	}
	return len(lk.uris)
}

// giveUp terminates the linker after its last trial slot failed, counting
// the terminal reason (a reject when every failed trial was refused, a
// timeout otherwise) and reporting the failure to the node, whose tunnel
// overlord decides whether a tunnel is needed. A busy race never ends here:
// it retries on its own (handleLinkError).
func (lk *linker) giveUp() {
	n, target, t := lk.node, lk.target, lk.ctype
	if lk.tunnelMode() {
		// A failed tunnel handshake never falls back to another tunnel.
		n.Stats.Add(cTunnelLinkGiveup, 1)
		lk.finish(false)
		return
	}
	n.Stats.Add(cLinkGiveup, 1)
	if lk.failReject > 0 && lk.failTimeout == 0 {
		n.Stats.Add(cLinkGiveupReject, 1)
	} else {
		n.Stats.Add(cLinkGiveupTimeout, 1)
	}
	lk.finish(false)
	n.linkFailed(target, t)
}

// sendRequest transmits the current link request and arms the resend timer.
func (lk *linker) sendRequest() {
	n := lk.node
	if !n.up {
		lk.finish(false)
		return
	}
	if lk.uriIdx >= lk.trialCount() {
		// All trials exhausted: give up. Higher layers (overlords)
		// re-issue CTMs with their own backoff.
		lk.giveUp()
		return
	}
	req := n.pool.links.Get()
	req.From, req.To, req.Type = n.addr, lk.target, lk.ctype
	req.Token, req.Seq, req.URIs = lk.token, lk.attempt, n.URIs()
	size := linkMsgSize + 16*len(req.URIs)
	if lk.tunnelMode() {
		// Tunnel mode: the handshake rides tunnelFrames through the
		// current relay. A relay we no longer hold a direct connection
		// to is skipped immediately.
		rc := n.direct(lk.relays[lk.uriIdx])
		if rc == nil {
			lk.uriIdx++
			lk.attempt = 0
			lk.sendRequest()
			return
		}
		n.sendFrame(rc, lk.target, size, req)
		n.Stats.Add(cLinkRequests, 1)
		lk.armResend()
		return
	}
	uri := lk.uris[lk.uriIdx]
	var stream *phys.Stream // the handshake's stream on a TCP URI
	if uri.Transport == "tcp" {
		// TCP-transport URI: the handshake rides a kernel stream.
		if lk.stream == nil {
			lk.stream = n.host.DialStream(uri.EP)
			st := lk.stream
			st.OnMessage(func(sz int, payload any) {
				n.handleWire(wire{stream: st}, payload)
			})
			st.OnClose(func(err error) {
				// A stream this linker abandoned, or one of a finished
				// linker whose object another linker has taken since, is
				// not the stream lk holds.
				if err != nil && lk.stream == st {
					// Stream failed: try the next URI.
					lk.stream = nil
					lk.timer.Cancel()
					lk.uriIdx++
					lk.attempt = 0
					lk.sendRequest()
				}
			})
		}
		stream = lk.stream
	}
	n.transmit(uri.EP, stream, size, req)
	n.Stats.Add(cLinkRequests, 1)
	lk.armResend()
}

// linkBackoff multiplies the link-request resend interval on every retry.
const linkBackoff float64 = 2

// armResend schedules the next resend with exponential backoff; once the
// retry budget for the current trial slot is burned, the slot is counted
// as timed out and the handshake restarts over the next one (§IV-D).
func (lk *linker) armResend() {
	n := lk.node
	wait := n.cfg.LinkResend
	for i := 0; i < lk.attempt; i++ {
		wait = sim.Duration(float64(wait) * linkBackoff)
	}
	lk.timer = n.sim.AtArg(n.sim.Now().Add(wait), linkResendFired, lk)
}

// linkResendFired is the resend timer's callback: package-level, so arming
// it through AtArg allocates no closure (see sim.AtArg). It never fires for a
// finished linker: finish cancels the timer.
func linkResendFired(arg any) {
	lk := arg.(*linker)
	n := lk.node
	lk.attempt++
	if lk.attempt > n.cfg.LinkRetries {
		if lk.tunnelMode() {
			n.Stats.Add(cTunnelRelayExhausted, 1)
		} else {
			n.Stats.Add(cLinkURIExhausted, 1)
			n.Stats.Add(cLinkURIExhaustedTimeout, 1)
		}
		lk.failTimeout++
		lk.abandonStream()
		lk.uriIdx++
		lk.attempt = 0
	}
	lk.sendRequest()
}

// abandonStream detaches a pending TCP-transport attempt. The stream is
// never closed here: with bidirectional linking the peer may already have
// adopted it as the connection's transport (our request reached them even
// though we are yielding the race). Streams that end up orphaned on both
// ends carry no keepalive traffic and are reaped by the physical layer's
// idle collector.
func (lk *linker) abandonStream() {
	lk.stream = nil
}

// finish terminates the linker, deregisters it and puts it back on its
// shard's list. Put blanks it, which abandons a pending stream the connection
// has not taken (see abandonStream). The caller must not touch lk afterwards.
func (lk *linker) finish(ok bool) {
	n := lk.node
	lk.timer.Cancel()
	delete(n.linkers, lk.target)
	if ok {
		n.Stats.Add(cLinkSuccess, 1)
		// A fresh link clears any busy-race escalation toward this
		// peer; the next race starts from the base backoff again.
		delete(n.busyRetry, lk.target)
	}
	n.pool.linkers.Put(lk, "linker.finish")
}

// handleLinkRequest is the responder side of the handshake. The responder
// records the connection state immediately and replies over the physical
// network; the requester's endpoint is whatever source address arrived on
// the wire (NAT-translated en route). The reply carries that observed
// endpoint so NATed initiators learn their public URIs (§IV-C).
//
// Linking races — both ends initiating simultaneously after a CTM exchange
// — are broken deterministically: the node with the smaller address keeps
// its attempt and answers the peer with a link error; the larger-address
// node abandons its own attempt and services the peer's. (The paper breaks
// the race with first-mover link errors plus randomized restarts; a
// deterministic tie-break converges to the same single-winner outcome
// without the restart round-trips.)
func (n *Node) handleLinkRequest(w wire, req *linkMsg) {
	req.Live(n.sim, "handleLinkRequest")
	src := w.observed()
	if req.To != n.addr && !req.To.IsZero() {
		// NAT rebinding or stale URI delivered this to the wrong
		// node: refuse so the initiator tries its next URI.
		n.refuse(w, req, refuseWrongTarget)
		return
	}
	if lk, active := n.linkers[req.From]; active {
		// A direct-wire request from a peer we only hold a tunnel to is
		// proof the peer can reach us physically, while our own attempt
		// may be dialing through a NAT that will never admit it. It wins
		// the race regardless of the address tie-break — otherwise
		// upgrade probing livelocks, the smaller-address side forever
		// "winning" races its own dials cannot cash in.
		c, ok := n.lookup(req.From)
		directUpgrade := ok && c.Tunneled() && !w.isTunnel()
		if n.addr.Less(req.From) && !directUpgrade {
			// We win: tell the peer to stand down; our own attempt
			// continues.
			n.Stats.Add(cLinkRaceWon, 1)
			n.refuse(w, req, refuseBusy)
			return
		}
		// We lose: abandon our attempt and serve theirs.
		n.Stats.Add(cLinkRaceYield, 1)
		lk.finish(false)
	}
	var relays []Addr
	observed := URIEndpoint{URI: URI{Transport: w.transport(), EP: src}}
	if w.isTunnel() {
		// Tunnel-mode handshake: record a tunnel edge through the relay
		// the request arrived via. There is no physical source endpoint;
		// the relay-stamped observation (our peer's public endpoint as the
		// relay saw it) is echoed back instead.
		relays = []Addr{w.tvia}
		observed = URIEndpoint{URI: w.tobs}
	}
	c := n.addConnection(req.From, src, w.stream, relays, req.URIs, req.Type)
	n.touch(c)
	// The reply comes from the list the request is about to go on.
	reply := n.pool.links.Get()
	reply.From, reply.Reply, reply.Token = n.addr, true, req.Token
	reply.URIs, reply.Observed = n.URIs(), observed
	n.replyTo(w, linkMsgSize+16*len(reply.URIs), reply)
}

// refuse turns req away with a reply from the list the request is about to
// go on.
func (n *Node) refuse(w wire, req *linkMsg, why refusal) {
	rep := n.pool.links.Get()
	rep.From, rep.Reply, rep.refusal, rep.Token = n.addr, true, why, req.Token
	n.replyTo(w, linkMsgSize, rep)
}

// handleLinkReply completes the initiator side of the handshake.
func (n *Node) handleLinkReply(w wire, rep *linkMsg) {
	src := w.observed()
	// Learn our own NAT-assigned URI from the responder's observation.
	if n.learnURI(rep.Observed.URI) {
		n.Stats.Add(cURILearned, 1)
	}
	lk, ok := n.linkers[rep.From]
	if !ok {
		// Leaf bootstrap linkers don't know the target's address in
		// advance (§IV-C: a new node only has bootstrap URIs); they
		// are registered under the zero address and matched by token.
		if zlk, zok := n.linkers[Zero]; zok && zlk.token == rep.Token {
			lk, ok = zlk, true
			delete(n.linkers, Zero)
			n.linkers[rep.From] = lk
			lk.target = rep.From
		}
	}
	if !ok || lk.token != rep.Token {
		// Duplicate or stale reply; refresh liveness if connected.
		if c, live := n.lookup(rep.From); live {
			n.touch(c)
		}
		return
	}
	stream, relays := lk.stream, []Addr(nil)
	if w.isTunnel() {
		stream, relays = nil, lk.relays
		if len(relays) == 0 {
			relays = []Addr{w.tvia}
		}
	}
	c := n.addConnection(rep.From, src, stream, relays, rep.URIs, lk.ctype)
	n.touch(c)
	lk.stream = nil // the connection owns it now
	lk.finish(true)
}

// handleLinkError aborts the attempt a refusal answers. A busy refusal means
// the peer's symmetric attempt is in flight and will soon establish the
// connection from its side; a wrong-target one advances to the next URI.
func (n *Node) handleLinkError(rep *linkMsg) {
	lk, ok := n.linkers[rep.From]
	if !ok || lk.token != rep.Token {
		// A wrong-target refusal comes from whoever actually answered a
		// stale URI — not the node we believed we were dialing — so the
		// sender's address won't match any linker. Recover it by token
		// (tokens are unique per linker); map iteration order is
		// irrelevant since at most one linker matches.
		lk = nil
		for _, cand := range n.linkers {
			if cand.token == rep.Token {
				lk = cand
				break
			}
		}
		if lk == nil {
			return
		}
	}
	if rep.refusal == refuseBusy {
		// The peer's symmetric attempt is in flight; usually it will
		// establish the connection from its side. But when our
		// middleboxes defeat inbound linking (e.g. a TCP-only node
		// behind a stateful firewall), only OUR outbound handshake can
		// ever succeed — so, per §IV-B2, restart with a randomized
		// exponential backoff rather than yielding forever.
		n.Stats.Add(cLinkURIExhausted, 1)
		n.Stats.Add(cLinkURIExhaustedBusy, 1)
		target, uris, ctype := lk.target, lk.uris, lk.ctype
		lk.finish(false)
		if n.busyRetry == nil {
			n.busyRetry = make(map[Addr]int)
		}
		n.busyRetry[target]++
		shift := n.busyRetry[target]
		if shift > 5 {
			shift = 5
		}
		backoff := n.cfg.LinkResend * sim.Duration(1<<uint(shift))
		backoff += sim.Duration(n.rand().Int63n(int64(backoff) + 1))
		n.sim.After(backoff, func() {
			if !n.up {
				return
			}
			if c := n.direct(target); c != nil && c.Has(ctype) {
				n.busyRetry[target] = 0
				return // the peer's attempt won after all
			}
			// A tunnel edge in the role does not stop the retry, or the
			// race loser could never dial out again.
			n.startLinker(target, uris, ctype)
		})
		return
	}
	// Wrong target (NAT rebind handed the URI to somebody else): this URI
	// is a hard reject, not a timeout; skip straight to the next.
	n.Stats.Add(cLinkURIExhausted, 1)
	n.Stats.Add(cLinkURIExhaustedReject, 1)
	lk.failReject++
	lk.timer.Cancel()
	lk.abandonStream()
	lk.uriIdx++
	lk.attempt = 0
	lk.sendRequest()
}
