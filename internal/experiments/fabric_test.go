package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"wow/internal/sim"
)

// TestFabricStartErrorSurfaces: a Start that fails inside the run — here
// because the node was already started by hand — comes back from the build
// as a wrapped error naming the node, not as a panic on a worker goroutine.
// Two nodes fail; the report is the lower fleet index whatever the plan,
// shard count or worker count, and the engine is closed.
func TestFabricStartErrorSurfaces(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ScaleOpts
	}{
		{"staggered", ScaleOpts{}},
		{"sharded-1-worker", ScaleOpts{Shards: 4, Workers: 1}},
		{"sharded-2-workers", ScaleOpts{Shards: 4, Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Seed, opts.Nodes, opts.Sites = 3, 24, 8
			opts.BatchInterval, opts.Settle = 2*sim.Second, 5*sim.Second
			opts.fillDefaults()
			ov, err := newScaleOverlay(opts)
			if err != nil {
				t.Fatal(err)
			}
			// Sites 6 and 5 live on different shards of the 4-shard engine,
			// and both starts fall inside one run of the staggered plan.
			for _, i := range []int{6, 5} {
				if err := ov.Nodes[i].Start(nil); err != nil {
					t.Fatal(err)
				}
			}
			err = ov.join(opts)
			if err == nil {
				t.Fatal("build succeeded with two nodes already started")
			}
			if msg := err.Error(); !strings.HasPrefix(msg, "scale: start scale00005: ") ||
				!strings.HasSuffix(msg, "already started") {
				t.Errorf("error = %q, want scale: start scale00005: … already started", msg)
			}
			defer func() {
				if recover() == nil {
					t.Error("engine still runs after a failed build; want it closed")
				}
			}()
			ov.fab.runUntil(ov.fab.now())
		})
	}
}

// Serial-plan pins captured at the parent commit (12065a5), where the
// serial scale build started one node per RunFor, by hand, on sim.New +
// phys.NewNetwork, with a throwaway test in internal/experiments that
// printed
//
//	ov, _ := BuildScaleOverlay(ScaleOpts{Seed: 3, Nodes: 300, Sites: 8})
//	sha256.Sum256([]byte(topologySignature(ov.Nodes)))
//	res, _ := RunScale(ScaleOpts{Seed: 3, Nodes: 300, Packets: 300, Sites: 8})
//	res.Delivered, res.AvgHops
//
// The staggered plan on the fabric must converge to the same topology and
// route the same packets over the same hops.
const (
	parentSerialTopologySHA = "95085583ac988c9e19b56b2d396f84d385528f354eeb950ccf46974aeb2a03ce"
	parentSerialDelivered   = 300
	parentSerialAvgHops     = 5.073333333333333
)

func TestScaleStaggeredPlanMatchesParent(t *testing.T) {
	opts := ScaleOpts{Seed: 3, Nodes: 300, Packets: 300, Sites: 8}
	ov, err := BuildScaleOverlay(opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(topologySignature(ov.Nodes)))
	if got := hex.EncodeToString(sum[:]); got != parentSerialTopologySHA {
		t.Errorf("topology signature digest %s, want the parent's %s", got, parentSerialTopologySHA)
	}
	res, err := RunScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != parentSerialDelivered || res.AvgHops != parentSerialAvgHops {
		t.Errorf("delivered %d, avg hops %v; want the parent's %d, %v",
			res.Delivered, res.AvgHops, parentSerialDelivered, parentSerialAvgHops)
	}
	if res.Shards != 0 || res.Series != nil {
		t.Errorf("staggered run reports batched-build provenance: %+v", res)
	}
}
