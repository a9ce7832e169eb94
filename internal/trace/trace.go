// Package trace is the flight recorder: a deterministic, sampling-based
// observability layer for the overlay simulation. Route tracing stamps a
// trace context on sampled overlay packets and records every forwarding
// decision hop by hop; health snapshots sample each node's ring
// consistency, connection-table composition, RTT-estimator state and
// repair backlog on a fixed cadence; both streams land in per-shard
// buffers that merge into one canonical record sequence exactly like the
// engine's cross-shard event lanes — (timestamp, shard, emission order) —
// so the merged stream is a pure function of (seed, shard count) and
// worker-invariant, and a serial run's stream is byte-identical to a
// 1-shard run's.
//
// The recorder is built to be free when unused: a node without a recorder
// pays one nil check per origination, and with recording enabled an
// unsampled packet pays an inline FNV-1a hash and no allocation (the
// TestAllocFree* guards in internal/brunet assert both).
package trace

import (
	"encoding/json"
	"fmt"

	"wow/internal/sim"
)

// Streams of the unified record sequence. A Record's Stream field selects
// which of the schema's field groups are meaningful; the JSONL export maps
// them to the trace.hop / trace.route / health.node envelope names.
const (
	StreamHop    = "hop"    // one forwarding decision of a sampled packet
	StreamRoute  = "route"  // a sampled packet's terminal (deliver/drop)
	StreamHealth = "health" // one node's periodic health snapshot
)

// Hop record kinds: the origin stamp plus the forwarding decision classes
// (which connection class carried the hop).
const (
	KindOrigin      = "origin"
	KindNear        = "near"
	KindFar         = "far"
	KindShortcut    = "shortcut"
	KindTunnelRelay = "tunnel-relay"
	KindLeaf        = "leaf"
	KindRelay       = "relay"
)

// Route terminal outcomes. Outcomes prefixed "phys." are stamped by the
// physical network's drop path with its loss reason appended
// ("phys.lost.wire", "phys.lost.fault", …).
const (
	OutcomeDelivered    = "delivered"         // reached the exact addressee
	OutcomeNearest      = "delivered.nearest" // consumed by the nearest node (DeliverNearest)
	OutcomeDeadLetter   = "dead_letter"       // exact-mode packet died at the nearest node
	OutcomeHopsExceeded = "hops_exceeded"
	OutcomeNodeDown     = "node_down"      // arrived at (or originated on) a stopped node
	OutcomeConnClosed   = "conn_closed"    // chosen connection closed under the packet
	OutcomeNoRelay      = "tunnel_norelay" // tunnel edge had no live relay
	OutcomeRelayNoRoute = "tunnel_noroute" // relay had no direct route to the tunnel peer
	OutcomePhysicalDrop = "phys."          // prefix: dropped inside the physical network
)

// Record is one flight-recorder event. One struct serves all three streams
// (hop, route, health) so the merged sequence stays a single ordered list;
// unused fields marshal away under omitempty. Addresses are full 40-digit
// hex (brunet.Addr.FullString) so records join exactly across nodes.
type Record struct {
	Stream string `json:"stream"`
	// T is the virtual time of the event in nanoseconds.
	T int64 `json:"t"`
	// Node is the emitting node; empty for records stamped by the
	// physical network (a packet dropped in flight belongs to no node).
	Node string `json:"node,omitempty"`

	// Trace is the packet's sampled trace id (hop and route streams).
	Trace uint64 `json:"trace,omitempty"`
	// Hop is the packet's hop count at this record.
	Hop int `json:"hop,omitempty"`
	// Kind is the hop's decision class (origin/near/far/shortcut/…).
	Kind string `json:"kind,omitempty"`
	// Next is the peer the packet was forwarded to.
	Next string `json:"next,omitempty"`
	// Via is the tunnel relay that carried the hop (tunnel-relay hops).
	Via string `json:"via,omitempty"`
	// Cands is the size of the structured candidate set the decision
	// chose from (the node's ring routers).
	Cands int `json:"cands,omitempty"`
	// Dist is the top 64 bits of the remaining ring distance to the
	// destination after this decision (at origination: the full initial
	// distance) — the monotonically shrinking progress metric of greedy
	// routing.
	Dist uint64 `json:"dist,omitempty"`

	// Src/Dst/Hops/LatNs/Outcome describe a route terminal; Src and Dst
	// also ride on the origin hop so a route's endpoints survive a lost
	// terminal.
	Src     string `json:"src,omitempty"`
	Dst     string `json:"dst,omitempty"`
	Hops    int    `json:"hops,omitempty"`
	LatNs   int64  `json:"lat_ns,omitempty"`
	Outcome string `json:"outcome,omitempty"`

	// Health-snapshot fields: ring consistency, connection-table
	// composition, mean RTT-estimator state over measured connections,
	// and the repair overlord's relink backlog.
	Routable  bool  `json:"routable,omitempty"`
	NearConns int   `json:"near,omitempty"`
	FarConns  int   `json:"far,omitempty"`
	Shortcuts int   `json:"shortcut,omitempty"`
	Tunnels   int   `json:"tunnel,omitempty"`
	Leafs     int   `json:"leaf,omitempty"`
	Relays    int   `json:"relay,omitempty"`
	SrttNs    int64 `json:"srtt_ns,omitempty"`
	RttvarNs  int64 `json:"rttvar_ns,omitempty"`
	RtoNs     int64 `json:"rto_ns,omitempty"`
	Backlog   int   `json:"backlog,omitempty"`
}

// EnvelopeName maps the record's stream to its JSONL envelope experiment
// name (the `wow-bench -json` convention).
func (r *Record) EnvelopeName() string {
	switch r.Stream {
	case StreamHop:
		return "trace.hop"
	case StreamRoute:
		return "trace.route"
	case StreamHealth:
		return "health.node"
	}
	return "trace." + r.Stream
}

// Options configures a Tracer.
type Options struct {
	// SampleN samples one origination in N per origin node, chosen
	// deterministically by FNV-1a of (node address, origination sequence
	// number). 1 samples everything; 0 is normalized to 1.
	SampleN uint64
	// Health is the per-node health-snapshot period; 0 disables the
	// health stream.
	Health sim.Duration
}

// Clock reads a shard's virtual clock; *sim.Simulator satisfies it.
type Clock interface {
	Now() sim.Time
}

// Buf is one shard's record buffer. It has exactly one writer — the shard
// whose events emit into it — so appends need no locks, mirroring the
// engine's cross-shard lanes. The buffer carries its shard's clock so
// emitters off the node hot path (the physical drop hook) can stamp
// records without threading a clock through.
type Buf struct {
	clock Clock
	recs  []Record
}

// Now reads the buffer's shard clock.
func (b *Buf) Now() sim.Time { return b.clock.Now() }

// Append records one event. The caller stamps T (emitters read their own
// clock once and derive latencies from the same value).
func (b *Buf) Append(r Record) { b.recs = append(b.recs, r) }

// Len reports the number of buffered records.
func (b *Buf) Len() int { return len(b.recs) }

// Tracer owns the per-shard buffers of one run. Construct it with one
// clock per engine shard (a single clock for the serial engine), hand
// Shard(i) to each node and to the physical network, and Drain the merged
// stream after the run.
type Tracer struct {
	opts Options
	bufs []*Buf
}

// New creates a tracer with one buffer per clock. The clock order must
// match the engine's shard numbering (shard i's events emit into buffer i).
func New(opts Options, clocks ...Clock) *Tracer {
	if len(clocks) == 0 {
		panic("trace: tracer needs at least one shard clock")
	}
	if opts.SampleN == 0 {
		opts.SampleN = 1
	}
	t := &Tracer{opts: opts, bufs: make([]*Buf, len(clocks))}
	for i, c := range clocks {
		t.bufs[i] = &Buf{clock: c}
	}
	return t
}

// Opts returns the tracer's configuration.
func (t *Tracer) Opts() Options { return t.opts }

// Shard returns shard i's buffer.
func (t *Tracer) Shard(i int) *Buf { return t.bufs[i] }

// Drain merges every shard buffer into the canonical record sequence —
// buffers concatenated in shard order, stable-sorted by timestamp, i.e.
// the engine's (timestamp, shard, emission order) total order — and
// resets the buffers. Call between runs only (buffers are single-writer
// during a run).
func (t *Tracer) Drain() []Record {
	parts := make([][]Record, len(t.bufs))
	for i, b := range t.bufs {
		parts[i] = b.recs
	}
	out := sim.MergeStable(parts, func(r Record) sim.Time { return sim.Time(r.T) })
	for _, b := range t.bufs {
		// Drop the storage outright: MergeStable may alias a single
		// non-empty buffer, so truncating in place would corrupt out.
		b.recs = nil
	}
	return out
}

// FNV-1a 64-bit constants, spelled out so the sampling rule is a stable
// wire-format-like contract (DESIGN.md §12) rather than an import detail.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashAddr folds a node address into the per-origin FNV-1a base hash.
func HashAddr(addr []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range addr {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// SampleHash mixes an origination sequence number into a node's base hash
// (little-endian byte order), yielding the packet's candidate trace id.
// Allocation-free: the unsampled hot path runs exactly this.
func SampleHash(base, seq uint64) uint64 {
	h := base
	for i := 0; i < 8; i++ {
		h ^= seq & 0xff
		h *= fnvPrime64
		seq >>= 8
	}
	return h
}

// Sampled applies the 1-in-N rule to a candidate hash.
func Sampled(h, sampleN uint64) bool {
	return sampleN <= 1 || h%sampleN == 0
}

// Traced is implemented by packet payloads that may carry a trace
// context, letting layers that cannot name the overlay packet type (the
// physical network's drop path) recover the context, and consume it after
// a terminal record. A zero id means the payload is untraced. Layers that
// may hold one packet object in two places at once (a transport retransmit
// buffer plus the wire) clear the context on the first terminal so the
// second sighting stays silent.
type Traced interface {
	TraceContext() (id uint64, start sim.Time)
	ClearTrace()
}

// MarshalJSONL renders records as JSON lines (one record per line), the
// raw form wow-trace consumes and golden tests pin.
func MarshalJSONL(recs []Record) ([]byte, error) {
	var out []byte
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, fmt.Errorf("trace: marshal record %d: %w", i, err)
		}
		out = append(out, b...)
		out = append(out, '\n')
	}
	return out, nil
}
