package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"

	"wow/internal/trace"
)

// traceCounts tallies a merged stream by record stream.
func traceCounts(recs []trace.Record) (hops, routes, health int) {
	for _, r := range recs {
		switch r.Stream {
		case trace.StreamHop:
			hops++
		case trace.StreamRoute:
			routes++
		case trace.StreamHealth:
			health++
		}
	}
	return hops, routes, health
}

// TestGrayTraceNeutral: arming hop/route tracing must not change the run —
// the seed-5 adaptive goldens (fault timeline, per-window series including
// event totals, summary) hold byte-for-byte with the recorder on. Tracing
// draws no randomness and schedules no events; only the health ticker adds
// events, so it stays off here.
func TestGrayTraceNeutral(t *testing.T) {
	r, err := RunGrayFailures(GrayOpts{Seed: 5, Adaptive: true, TraceSample: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline != goldenGrayTimelineSeed5 {
		t.Errorf("tracing changed the fault timeline; %s",
			diffLine(r.Timeline, goldenGrayTimelineSeed5))
	}
	if got := graySeriesDigest(r); got != goldenGraySeriesSeed5 {
		t.Errorf("tracing changed the run (series drifted); %s",
			diffLine(got, goldenGraySeriesSeed5))
	}
	if got := r.String(); got != goldenGraySummarySeed5 {
		t.Errorf("tracing changed the summary; %s", diffLine(got, goldenGraySummarySeed5))
	}
	if len(r.Trace) == 0 {
		t.Fatal("tracing armed but no records captured")
	}
}

// Golden pin for the seed-5 adaptive trace stream at 1-in-16 sampling: the
// merged JSONL is a byte-exact function of the seed. The first records and
// a digest of the whole stream are pinned; drift means the sampling rule,
// the record schema, the merge order, or a routing decision changed.
const goldenGrayTraceSeed5Hops = 534
const goldenGrayTraceSeed5Routes = 299
const goldenGrayTraceSeed5SHA = "d1b740f31715e64db47e3dc4cd5ddfe8b313832b5ee2c897184dd91abb9a4572"

const goldenGrayTraceSeed5First = `{"stream":"hop","t":1040000000,"node":"e029939a066d17c0716d0f72cff8f46b781f90ca","trace":15595511106300592320,"kind":"origin","cands":3,"dist":5144826207695440223,"src":"e029939a066d17c0716d0f72cff8f46b781f90ca","dst":"98c37b6c999e8e611b15f1d57c53ec6a5d1bcbdd"}
{"stream":"hop","t":1040000000,"node":"e029939a066d17c0716d0f72cff8f46b781f90ca","trace":15595511106300592320,"hop":1,"kind":"near","next":"98c37b6c999e8e611b15f1d57c53ec6a5d1bcbdd","cands":3}
`

func TestGoldenSeedGrayTrace(t *testing.T) {
	r, err := RunGrayFailures(GrayOpts{Seed: 5, Adaptive: true, TraceSample: 16})
	if err != nil {
		t.Fatal(err)
	}
	hops, routes, health := traceCounts(r.Trace)
	if hops != goldenGrayTraceSeed5Hops || routes != goldenGrayTraceSeed5Routes || health != 0 {
		t.Errorf("record counts drifted: %d hop / %d route / %d health, want %d / %d / 0",
			hops, routes, health, goldenGrayTraceSeed5Hops, goldenGrayTraceSeed5Routes)
	}
	data, err := trace.MarshalJSONL(r.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(goldenGrayTraceSeed5First)) {
		got := data
		if len(got) > len(goldenGrayTraceSeed5First)+80 {
			got = got[:len(goldenGrayTraceSeed5First)+80]
		}
		t.Errorf("first trace records drifted:\ngot:\n%s\nwant prefix:\n%s", got, goldenGrayTraceSeed5First)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenGrayTraceSeed5SHA {
		t.Errorf("trace stream digest drifted: %s, want %s", got, goldenGrayTraceSeed5SHA)
	}
	// Every sampled route must terminate exactly once.
	origins := map[uint64]bool{}
	terminals := map[uint64]int{}
	for _, rec := range r.Trace {
		switch rec.Stream {
		case trace.StreamHop:
			if rec.Kind == trace.KindOrigin {
				origins[rec.Trace] = true
			}
		case trace.StreamRoute:
			terminals[rec.Trace]++
		}
	}
	for id := range origins {
		if terminals[id] != 1 {
			t.Errorf("trace %d has %d terminals, want 1", id, terminals[id])
		}
	}
	if len(terminals) != len(origins) {
		t.Errorf("%d terminals for %d origins", len(terminals), len(origins))
	}
}

// TestQuickGrayTraceEquivalence extends the sharded-equivalence property
// to the flight recorder: the merged trace stream is byte-identical
// between Shards 0 and the explicit one-shard run, and between worker
// counts of a multi-shard run. (Across shard counts the stream —
// like the run itself — is a distinct deterministic execution; see
// TestQuickGrayShardedEquivalence.)
func TestQuickGrayTraceEquivalence(t *testing.T) {
	stream := func(seed int64, shards, workers int) []byte {
		opts := GrayOpts{Seed: seed, Nodes: 16, Sites: 4, Windows: 3,
			WindowLen: SettleSeconds(20), Settle: SettleSeconds(60), Kills: 2,
			TraceSample: 4, TraceHealth: SettleSeconds(30),
			Shards: shards, Workers: workers}
		r, err := RunGrayFailures(opts)
		if err != nil {
			t.Fatal(err)
		}
		data, err := trace.MarshalJSONL(r.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Trace) == 0 {
			t.Fatalf("seed %d shards %d: empty trace stream", seed, shards)
		}
		return data
	}
	f := func(rawSeed uint8) bool {
		seed := int64(rawSeed)%5 + 1
		zero := stream(seed, 0, 0)
		one := stream(seed, 1, 1)
		if !bytes.Equal(zero, one) {
			t.Logf("seed %d: Shards 0 and 1 trace streams differ; %s",
				seed, diffLine(string(zero), string(one)))
			return false
		}
		two1 := stream(seed, 2, 1)
		two2 := stream(seed, 2, 2)
		if !bytes.Equal(two1, two2) {
			t.Logf("seed %d: 2-shard trace stream varies with workers; %s",
				seed, diffLine(string(two1), string(two2)))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestGrayTraceHealthStream: arming the health ticker produces snapshots
// for every node with sane contents, and the hop/route streams are
// unaffected by its presence.
func TestGrayTraceHealthStream(t *testing.T) {
	opts := GrayOpts{Seed: 3, Nodes: 16, Sites: 4, Windows: 3,
		WindowLen: SettleSeconds(20), Settle: SettleSeconds(60), Kills: 2,
		TraceSample: 4}
	bare, err := RunGrayFailures(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.TraceHealth = SettleSeconds(30)
	withHealth, err := RunGrayFailures(opts)
	if err != nil {
		t.Fatal(err)
	}
	var stripped []trace.Record
	nodesSeen := map[string]bool{}
	var snapshots int
	for _, rec := range withHealth.Trace {
		if rec.Stream != trace.StreamHealth {
			stripped = append(stripped, rec)
			continue
		}
		snapshots++
		nodesSeen[rec.Node] = true
		if rec.T == 0 || rec.Node == "" {
			t.Errorf("health snapshot missing time or node: %+v", rec)
		}
		if rec.NearConns < 0 || rec.Backlog < 0 {
			t.Errorf("negative table counts: %+v", rec)
		}
	}
	if snapshots == 0 {
		t.Fatal("health ticker armed but no snapshots")
	}
	if len(nodesSeen) != opts.Nodes {
		t.Errorf("snapshots cover %d nodes, want %d", len(nodesSeen), opts.Nodes)
	}
	a, _ := trace.MarshalJSONL(bare.Trace)
	b, _ := trace.MarshalJSONL(stripped)
	if !bytes.Equal(a, b) {
		t.Errorf("health ticker perturbed the hop/route streams; %s",
			diffLine(string(a), string(b)))
	}
	if !strings.Contains(string(b), `"stream":"route"`) {
		t.Error("no route records in traced run")
	}
}
