package brunet

import (
	"wow/internal/sim"
	"wow/internal/trace"
)

// This file is the node side of the flight recorder (internal/trace):
// deterministic route sampling at origination, per-hop decision records,
// terminal records at every point a packet can die, and the periodic
// health snapshot. Everything is gated on n.flight — a node without a
// recorder pays one nil check per origination — and nothing here draws
// from any RNG or schedules protocol events, so enabling hop/route
// tracing cannot change a run's outcome (the health ticker adds events
// but runs jitter-free and read-only, leaving protocol behavior intact).

// flightRecorder is a node's handle into the run's tracer: the shard
// buffer it emits into plus the precomputed per-origin sampling state.
type flightRecorder struct {
	buf     *trace.Buf
	sampleN uint64
	health  sim.Duration
	// base is the node's FNV-1a address hash; mixing the origination
	// sequence number into it yields the packet's candidate trace id.
	base uint64
	// seq counts originations considered for sampling.
	seq uint64
	// nodeID is the node address pre-rendered for records.
	nodeID string
	// ticker paces the health snapshots while the node runs (health > 0).
	ticker sim.Ticker
}

// EnableTrace attaches the node to a flight recorder (nil detaches). Call
// before Start: the health ticker, when configured, is armed during Start,
// and stops with the recorder it belongs to — at Stop, or when this call
// replaces it.
// The tracer must carry one buffer per engine shard — the node emits into
// the buffer of the shard that owns its host, keeping buffers
// single-writer under the parallel engine.
func (n *Node) EnableTrace(tr *trace.Tracer) {
	if n.flight != nil {
		n.flight.ticker.Stop()
	}
	if tr == nil {
		n.flight = nil
		return
	}
	n.flight = &flightRecorder{
		buf:     tr.Shard(n.host.Shard()),
		sampleN: tr.Opts().SampleN,
		health:  tr.Opts().Health,
		base:    trace.HashAddr(n.addr[:]),
		nodeID:  n.addr.FullString(),
	}
}

// distTop64 reduces the ring distance from a to dst to its top 64 bits —
// the compact progress metric hop records carry.
func distTop64(a, dst Addr) uint64 {
	hi, _, _ := ringDistWords(&a, &dst)
	return hi
}

// flightSample applies the deterministic 1-in-N sampling rule to one
// origination: candidate id = FNV-1a(addr bytes, then seq bytes), sampled
// when id ≡ 0 (mod N). The unsampled path runs exactly the hash — no
// allocation, no RNG — so tracing-enabled forwarding stays alloc-free.
// A sampled packet gets its trace context stamped and an origin hop
// record carrying the route endpoints and initial ring distance.
func (n *Node) flightSample(pkt *OverlayPacket) {
	f := n.flight
	f.seq++
	h := trace.SampleHash(f.base, f.seq)
	if !trace.Sampled(h, f.sampleN) {
		return
	}
	if h == 0 {
		h = 1 // zero means "untraced"; remap the one-in-2^64 collision
	}
	now := n.sim.Now()
	pkt.Trace = h
	pkt.TraceStart = now
	f.buf.Append(trace.Record{
		Stream: trace.StreamHop,
		T:      int64(now),
		Node:   f.nodeID,
		Trace:  h,
		Kind:   trace.KindOrigin,
		Cands:  n.routers(),
		Dist:   distTop64(n.addr, pkt.Dst),
		Src:    pkt.Src.FullString(),
		Dst:    pkt.Dst.FullString(),
	})
}

// flightHop records one forwarding decision: which connection class won
// (tunnel beats shortcut beats far beats near — a connection can hold
// several roles), the chosen peer, the relay carrying a tunnel hop, the
// candidate-set size and the ring distance still to cover. Called after
// sendConn so a tunnel edge's activeRelay reflects the relay this very
// frame used; a packet that died inside sendConn has had its context
// cleared by the terminal record, so the caller's Trace check skips this.
func (n *Node) flightHop(pkt *OverlayPacket, best *Connection) {
	f := n.flight
	var kind, via string
	switch {
	case best.Tunneled():
		kind = trace.KindTunnelRelay
		if !best.tun.activeRelay.IsZero() {
			via = best.tun.activeRelay.FullString()
		}
	case best.Has(Shortcut):
		kind = trace.KindShortcut
	case best.Has(StructuredFar):
		kind = trace.KindFar
	case best.Has(StructuredNear):
		kind = trace.KindNear
	case best.Has(Leaf):
		kind = trace.KindLeaf
	default:
		kind = trace.KindRelay
	}
	f.buf.Append(trace.Record{
		Stream: trace.StreamHop,
		T:      int64(n.sim.Now()),
		Node:   f.nodeID,
		Trace:  pkt.Trace,
		Hop:    pkt.Hops,
		Kind:   kind,
		Next:   best.Peer.FullString(),
		Via:    via,
		Cands:  n.routers(),
		Dist:   distTop64(best.Peer, pkt.Dst),
	})
}

// flightTerminal records a traced packet's end — delivery or any of the
// drop paths — and consumes the trace context, so no later code path can
// emit for the same packet again.
func (n *Node) flightTerminal(pkt *OverlayPacket, outcome string) {
	f := n.flight
	now := n.sim.Now()
	f.buf.Append(trace.Record{
		Stream:  trace.StreamRoute,
		T:       int64(now),
		Node:    f.nodeID,
		Trace:   pkt.Trace,
		Src:     pkt.Src.FullString(),
		Dst:     pkt.Dst.FullString(),
		Hops:    pkt.Hops,
		LatNs:   int64(now.Sub(pkt.TraceStart)),
		Outcome: outcome,
	})
	pkt.Trace = 0
}

// flightDrop records the end of a payload dying at this node when it is a
// traced overlay packet: a stopped node's wire, a closed connection, a tunnel
// edge without a live relay, a relay with no route onward.
func (n *Node) flightDrop(payload any, outcome string) {
	if n.flight == nil {
		return
	}
	if op, ok := payload.(*OverlayPacket); ok && op.Trace != 0 {
		n.flightTerminal(op, outcome)
	}
}

// flightHealthFired is the health ticker's callback (see nearTickFired).
func flightHealthFired(n any) { n.(*Node).flightHealthTick() }

// flightHealthTick emits one health snapshot: ring consistency
// (routability), the connection table's composition by role and tunnel
// state, the mean RTT-estimator state over measured connections with the
// resulting ping deadline, and the repair overlord's relink backlog. The
// tick reads state only — protocol behavior is untouched by sampling it.
func (n *Node) flightHealthTick() {
	if !n.up || n.flight == nil {
		return
	}
	f := n.flight
	rec := trace.Record{
		Stream:   trace.StreamHealth,
		T:        int64(n.sim.Now()),
		Node:     f.nodeID,
		Routable: n.IsRoutable(),
	}
	var srtt, rttvar, rto sim.Duration
	measured := 0
	for _, s := range n.table.slots {
		c := s.c
		if c.Tunneled() {
			rec.Tunnels++
		}
		if c.Has(StructuredNear) {
			rec.NearConns++
		}
		if c.Has(StructuredFar) {
			rec.FarConns++
		}
		if c.Has(Shortcut) {
			rec.Shortcuts++
		}
		if c.Has(Leaf) {
			rec.Leafs++
		}
		if c.Has(Relay) {
			rec.Relays++
		}
		if c.haveRTT {
			measured++
			srtt += c.srtt
			rttvar += c.rttvar
			rto += n.pingDeadline(c)
		}
	}
	if measured > 0 {
		rec.SrttNs = int64(srtt) / int64(measured)
		rec.RttvarNs = int64(rttvar) / int64(measured)
		rec.RtoNs = int64(rto) / int64(measured)
	}
	if n.repair != nil {
		rec.Backlog = len(n.repair.pending)
	}
	f.buf.Append(rec)
}
