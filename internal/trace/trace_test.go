package trace

import (
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"

	"wow/internal/sim"
)

// fakeClock is a settable Clock for buffer tests.
type fakeClock struct{ now sim.Time }

func (c *fakeClock) Now() sim.Time { return c.now }

func TestHashAddrMatchesStdlibFNV(t *testing.T) {
	for _, in := range [][]byte{nil, {0}, {1, 2, 3}, []byte("gray003-address-bytes")} {
		h := fnv.New64a()
		h.Write(in)
		if got, want := HashAddr(in), h.Sum64(); got != want {
			t.Errorf("HashAddr(%v) = %d, stdlib fnv64a = %d", in, got, want)
		}
	}
}

func TestSampleHashMatchesStdlibFNV(t *testing.T) {
	// SampleHash(base, seq) must equal continuing the stdlib FNV-1a stream
	// with the 8 little-endian bytes of seq — the documented contract.
	addr := []byte("node-address")
	base := HashAddr(addr)
	for _, seq := range []uint64{0, 1, 255, 256, 1 << 40, ^uint64(0)} {
		h := fnv.New64a()
		h.Write(addr)
		var le [8]byte
		for i := range le {
			le[i] = byte(seq >> (8 * i))
		}
		h.Write(le[:])
		if got, want := SampleHash(base, seq), h.Sum64(); got != want {
			t.Errorf("SampleHash(base, %d) = %d, stdlib = %d", seq, got, want)
		}
	}
}

func TestSampledRate(t *testing.T) {
	if !Sampled(123, 0) || !Sampled(123, 1) {
		t.Error("SampleN 0/1 must sample everything")
	}
	// Over a run of consecutive sequence numbers the 1-in-N rule lands
	// within a loose factor of N (FNV output is well mixed).
	base := HashAddr([]byte("origin"))
	const n, total = 16, 4096
	hits := 0
	for seq := uint64(0); seq < total; seq++ {
		if Sampled(SampleHash(base, seq), n) {
			hits++
		}
	}
	if hits < total/n/2 || hits > total/n*2 {
		t.Errorf("1-in-%d sampling hit %d of %d", n, hits, total)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	f := func(addr []byte, seq uint64) bool {
		base := HashAddr(addr)
		return SampleHash(base, seq) == SampleHash(base, seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTracerNormalizesOptions(t *testing.T) {
	tr := New(Options{}, &fakeClock{})
	if tr.Opts().SampleN != 1 {
		t.Errorf("SampleN 0 not normalized to 1: %d", tr.Opts().SampleN)
	}
	if len(tr.bufs) != 1 {
		t.Errorf("%d buffers, want 1", len(tr.bufs))
	}
	defer func() {
		if recover() == nil {
			t.Error("New with no clocks did not panic")
		}
	}()
	New(Options{SampleN: 4})
}

// TestDrainMergeOrder: records merge across shard buffers exactly like the
// engine's cross-shard lanes — by timestamp, ties broken by shard index,
// then emission order.
func TestDrainMergeOrder(t *testing.T) {
	tr := New(Options{SampleN: 1}, &fakeClock{}, &fakeClock{}, &fakeClock{})
	// Shard 2 emits early and late; shard 0 emits in the middle; shard 1
	// ties shard 0's timestamp.
	tr.Shard(2).Append(Record{Stream: StreamHop, T: 10, Node: "s2a"})
	tr.Shard(2).Append(Record{Stream: StreamHop, T: 50, Node: "s2b"})
	tr.Shard(0).Append(Record{Stream: StreamHop, T: 20, Node: "s0a"})
	tr.Shard(0).Append(Record{Stream: StreamHop, T: 20, Node: "s0b"})
	tr.Shard(1).Append(Record{Stream: StreamHop, T: 20, Node: "s1a"})
	got := tr.Drain()
	want := []string{"s2a", "s0a", "s0b", "s1a", "s2b"}
	if len(got) != len(want) {
		t.Fatalf("drained %d records, want %d", len(got), len(want))
	}
	for i, n := range want {
		if got[i].Node != n {
			t.Errorf("record %d = %s, want %s", i, got[i].Node, n)
		}
	}
	// Drain resets: a second drain is empty and the buffers are reusable.
	if again := tr.Drain(); len(again) != 0 {
		t.Errorf("second drain returned %d records", len(again))
	}
	tr.Shard(0).Append(Record{Stream: StreamHop, T: 1, Node: "after"})
	if got := tr.Drain(); len(got) != 1 || got[0].Node != "after" {
		t.Errorf("post-reset drain = %+v", got)
	}
}

// TestDrainSingleBufferAliasSafe: draining a tracer whose records all sit
// in one buffer must return an intact slice even though the merge may
// alias the buffer storage.
func TestDrainSingleBufferAliasSafe(t *testing.T) {
	tr := New(Options{SampleN: 1}, &fakeClock{}, &fakeClock{})
	for i := 0; i < 100; i++ {
		tr.Shard(1).Append(Record{Stream: StreamHop, T: int64(i), Hop: i})
	}
	got := tr.Drain()
	tr.Shard(1).Append(Record{Stream: StreamHop, T: 0, Hop: -1})
	for i, r := range got {
		if r.Hop != i {
			t.Fatalf("drained record %d corrupted after post-drain append: %+v", i, r)
		}
	}
}

func TestEnvelopeName(t *testing.T) {
	for _, tc := range []struct{ stream, want string }{
		{StreamHop, "trace.hop"},
		{StreamRoute, "trace.route"},
		{StreamHealth, "health.node"},
		{"custom", "trace.custom"},
	} {
		r := Record{Stream: tc.stream}
		if got := r.EnvelopeName(); got != tc.want {
			t.Errorf("EnvelopeName(%s) = %s, want %s", tc.stream, got, tc.want)
		}
	}
}

func TestMarshalJSONLRoundTrip(t *testing.T) {
	recs := []Record{
		{Stream: StreamHop, T: 5, Node: "n1", Trace: 42, Kind: KindOrigin, Cands: 3, Dist: 99, Src: "n1", Dst: "n2"},
		{Stream: StreamRoute, T: 9, Node: "n2", Trace: 42, Hops: 2, LatNs: 4, Outcome: OutcomeDelivered},
		{Stream: StreamHealth, T: 12, Node: "n1", Routable: true, NearConns: 2, Backlog: 1},
	}
	data, err := MarshalJSONL(recs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(recs) {
		t.Fatalf("%d lines, want %d", len(lines), len(recs))
	}
	for i, line := range lines {
		var back Record
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if back != recs[i] {
			t.Errorf("round trip %d:\n in: %+v\nout: %+v", i, recs[i], back)
		}
	}
	// Unused fields must marshal away: a hop record carries no health keys.
	if strings.Contains(lines[0], "routable") || strings.Contains(lines[0], "outcome") {
		t.Errorf("hop record leaks unrelated fields: %s", lines[0])
	}
}
