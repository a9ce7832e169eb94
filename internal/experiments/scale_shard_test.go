package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wow/internal/brunet"
	"wow/internal/sim"
)

// topologySignature flattens the whole overlay's connection tables into one
// string: per node, the sorted peer list with role sets. Two builds that
// produce the same signature converged to the same topology.
func topologySignature(nodes []*brunet.Node) string {
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "%v:", n.Addr())
		for _, c := range n.Connections() {
			types := c.Types()
			sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
			fmt.Fprintf(&b, " %v%v", c.Peer, types)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func buildBatched(t *testing.T, workers int) (*ScaleOverlay, ScaleOpts) {
	t.Helper()
	opts := ScaleOpts{
		Seed:          3,
		Nodes:         240,
		Sites:         8,
		Shards:        4,
		Workers:       workers,
		BatchJoin:     48,
		BatchInterval: 4 * sim.Second,
		Settle:        90 * sim.Second,
	}
	ov, err := BuildScaleOverlay(opts)
	if err != nil {
		t.Fatal(err)
	}
	return ov, opts
}

// TestScaleShardedBuildConverges: the batched, sharded build produces a
// fully routable overlay whose near-neighbor links trace the sorted
// address ring.
func TestScaleShardedBuildConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-node build")
	}
	ov, opts := buildBatched(t, 0)
	defer ov.Close()
	if frac := ov.RoutableFrac(); frac != 1.0 {
		t.Fatalf("routable fraction = %.3f, want 1.0", frac)
	}
	// Ring consistency: every node must hold a structured connection to
	// its true clockwise successor in sorted address order.
	if missing, _, _ := ringAudit(ov.Nodes); missing != 0 {
		t.Errorf("%d/%d nodes missing their ring successor link", missing, len(ov.Nodes))
	}
	if len(ov.Series) == 0 {
		t.Error("batched build recorded no time series")
	}
	last := ov.Series[len(ov.Series)-1]
	if last.Joined != opts.Nodes {
		t.Errorf("final series point joined = %d, want %d", last.Joined, opts.Nodes)
	}
	if last.Events == 0 {
		t.Error("final series point has zero events")
	}
}

// TestScaleShardedWorkerInvariance: the determinism contract end to end —
// the converged topology, merged network stats and total event count of a
// sharded build must be identical whether 1 or 4 workers executed it.
func TestScaleShardedWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-node build x2")
	}
	ov1, _ := buildBatched(t, 1)
	total1 := ov1.fab.net.TotalStats()
	sig1, stats1, ev1 := topologySignature(ov1.Nodes), total1.String(), ov1.fab.processed()
	ov1.Close()
	ov4, _ := buildBatched(t, 4)
	total4 := ov4.fab.net.TotalStats()
	sig4, stats4, ev4 := topologySignature(ov4.Nodes), total4.String(), ov4.fab.processed()
	ov4.Close()
	if sig1 != sig4 {
		t.Error("converged topology depends on worker count")
	}
	if stats1 != stats4 {
		t.Errorf("network stats depend on worker count:\n  1: %s\n  4: %s", stats1, stats4)
	}
	if ev1 != ev4 {
		t.Errorf("event totals depend on worker count: %d vs %d", ev1, ev4)
	}
}

// TestScaleParallelMeasurement: the timed measurement phase delivers every
// packet and reports sane aggregates.
func TestScaleParallelMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-node build")
	}
	var points int
	res, err := RunScale(ScaleOpts{
		Seed:          5,
		Nodes:         160,
		Packets:       200,
		Sites:         8,
		Shards:        4,
		BatchJoin:     40,
		BatchInterval: 4 * sim.Second,
		Settle:        90 * sim.Second,
		OnProgress:    func(ScalePoint) { points++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 || res.BatchJoin != 40 {
		t.Fatalf("parallel fields not recorded: %+v", res)
	}
	if res.Delivered != res.PacketsSent {
		t.Errorf("delivered %d of %d measurement packets", res.Delivered, res.PacketsSent)
	}
	if res.AvgHops <= 1 {
		t.Errorf("avg hops = %.2f, want > 1 on a 160-node ring", res.AvgHops)
	}
	if res.RoutableFrac != 1.0 {
		t.Errorf("routable fraction = %.3f", res.RoutableFrac)
	}
	if points == 0 || len(res.Series) != points {
		t.Errorf("series: OnProgress fired %d times, Series has %d points", points, len(res.Series))
	}
	if out := res.String(); !strings.Contains(out, "parallel: 4 shards") {
		t.Errorf("String() missing parallel line:\n%s", out)
	}
}

// TestScaleBatchedUnshardedBuild: BatchJoin without Shards runs the
// batched plan on a single event queue and still converges — the batching
// and sharding knobs are independent.
func TestScaleBatchedUnshardedBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-node build")
	}
	ov, err := BuildScaleOverlay(ScaleOpts{
		Seed:          9,
		Nodes:         120,
		Sites:         6,
		BatchJoin:     30,
		BatchInterval: 4 * sim.Second,
		Settle:        90 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Close()
	if frac := ov.RoutableFrac(); frac != 1.0 {
		t.Fatalf("routable fraction = %.3f, want 1.0", frac)
	}
}
