package brunet

import "wow/internal/sim"

// repairOverlord re-establishes structured connections lost involuntarily
// (ping timeout, stream death) — the connection-table repair that re-merges
// a healed partition without waiting for bootstrap retries or gossip
// rounds. Each lost peer is retried against its last advertised URIs with
// jittered exponential backoff, RelinkBase·2^attempt + U[0, RelinkBase),
// for up to relinkRetries attempts; the jitter desynchronizes the two
// partition sides so a heal does not trigger a reconnection stampede.
// Voluntary drops (leave, peer_close, trim, idle) are never re-linked.
//
// The overlord is event-driven rather than ticker-based so that a healthy
// node costs nothing: no periodic pass, and no random draws that would
// perturb the deterministic event sequence of fault-free runs.
type repairOverlord struct {
	node *Node
	// pending is made when the first connection is lost (onDisconnection).
	pending map[Addr]*relinkState
}

// relinkState is one peer awaiting re-link.
type relinkState struct {
	uris    []URI
	ctype   ConnType
	attempt int
	ev      sim.Timer
}

// relinkRetries is how many re-link attempts a lost peer gets.
const relinkRetries = 5

func (o *repairOverlord) onConnection(c *Connection) {
	if st, ok := o.pending[c.Peer]; ok {
		st.ev.Cancel()
		delete(o.pending, c.Peer)
		o.node.Stats.Add(cRelinkSuccess, 1)
	}
}

func (o *repairOverlord) onDisconnection(c *Connection) {
	involuntary := c.reason == dropTimeout || c.reason == dropStream
	if !involuntary || !c.structured() || len(c.URIs) == 0 {
		return
	}
	// Re-link in the connection's most load-bearing role; the overlords
	// re-derive the rest once the link is back.
	if st, ok := o.pending[c.Peer]; ok {
		st.ev.Cancel()
	}
	st := &relinkState{uris: c.URIs, ctype: c.mainRole()}
	if o.pending == nil {
		o.pending = make(map[Addr]*relinkState)
	}
	o.pending[c.Peer] = st
	o.schedule(c.Peer, st)
}

// schedule arms the next re-link attempt with jittered exponential backoff.
func (o *repairOverlord) schedule(peer Addr, st *relinkState) {
	n := o.node
	shift := uint(st.attempt)
	if shift > 6 {
		shift = 6
	}
	d := n.cfg.RelinkBase<<shift +
		sim.Duration(n.rand().Int63n(int64(n.cfg.RelinkBase)))
	st.ev = n.sim.After(d, func() { o.fire(peer, st) })
}

// fire runs one due re-link attempt.
func (o *repairOverlord) fire(peer Addr, st *relinkState) {
	n := o.node
	if !n.up || n.repair != o || o.pending[peer] != st {
		return
	}
	if _, ok := n.lookup(peer); ok {
		delete(o.pending, peer)
		n.Stats.Add(cRelinkSuccess, 1)
		return
	}
	if st.attempt >= relinkRetries {
		delete(o.pending, peer)
		n.Stats.Add(cRelinkGiveup, 1)
		return
	}
	st.attempt++
	n.Stats.Add(cRelinkAttempts, 1)
	n.startLinker(peer, st.uris, st.ctype)
	o.schedule(peer, st)
}
