package brunet

import (
	"fmt"
	"strings"
	"testing"

	"wow/internal/metrics"
	"wow/internal/phys"
	"wow/internal/sim"
)

// TestAllocFreeFirstCount: a fresh node holds a cell for every name of its
// family, so the first count of each — through Add, or by name through Inc —
// allocates nothing.
func TestAllocFreeFirstCount(t *testing.T) {
	s := sim.New(1)
	net := phys.NewNetwork(s, phys.UniformLatency(phys.PathModel{}, phys.PathModel{}))
	n := NewNode(net.AddHost("fresh", net.AddSite("s"), net.Root(), phys.HostConfig{}), AddrFromString("fresh"), FastTestConfig())
	names := Counters.Names()
	if len(names) != numCounters {
		t.Fatalf("the family declares %d names for %d indexes", len(names), numCounters)
	}
	got := mallocs(func() {
		for i, name := range names {
			if i%2 == 0 {
				n.Stats.Add(i, 1)
			} else {
				n.Stats.Inc(name, 1)
			}
		}
	})
	for _, name := range names {
		if v := n.Stats.Get(name); v != 1 {
			t.Fatalf("%s = %d after one count, want 1", name, v)
		}
	}
	if raceEnabled {
		t.Logf("first counts of %d cells under -race: %d allocs (not asserted)", len(names), got)
	} else if got != 0 {
		t.Errorf("first counts of %d cells on a fresh node allocate %d objects, want 0", len(names), got)
	}
}

// TestCounterRunsFollowTheirEnums: the conn.<role> and conn.dropped.<reason>
// cells are indexed by arithmetic on ConnType and dropReason, so their names
// must follow those enums' order.
func TestCounterRunsFollowTheirEnums(t *testing.T) {
	names := Counters.Names()
	for typ := ConnType(0); int(typ) < numConnTypes; typ++ {
		if got, want := names[cConnRole+int(typ)], "conn."+typ.String(); got != want {
			t.Errorf("cell %d is %q, want %q", cConnRole+int(typ), got, want)
		}
	}
	for i, reason := range []string{"timeout", "stream", "peer_close", "peer_leave", "leave", "trim", "idle", "norelay"} {
		if got, want := names[cConnDropped+i], "conn.dropped."+reason; got != want {
			t.Errorf("cell %d is %q, want %q", cConnDropped+i, got, want)
		}
	}
}

// pinJoinCounters is the fleet-wide counters of joinOverlay's seeded
// 206-node join (200 public nodes, six behind symmetric NATs), every
// non-zero one, as the string-keyed counters recorded them.
const pinJoinCounters = "" +
	"conn.created=4612\n" +
	"conn.dropped.peer_close=780\n" +
	"conn.dropped.trim=780\n" +
	"conn.leaf=410\n" +
	"conn.structured.far=2208\n" +
	"conn.structured.near=2624\n" +
	"ctm.received=3330\n" +
	"ctm.replied=3322\n" +
	"ctm.sent=9092\n" +
	"forward.nochild=1\n" +
	"link.attempts=3813\n" +
	"link.giveup=44\n" +
	"link.giveup.timeout=44\n" +
	"link.race_won=1083\n" +
	"link.race_yield=730\n" +
	"link.requests=4717\n" +
	"link.success=2633\n" +
	"link.uri_exhausted=642\n" +
	"link.uri_exhausted.busy=406\n" +
	"link.uri_exhausted.timeout=236\n" +
	"near.trimmed=1012\n" +
	"ping.sent=29406\n" +
	"route.dead_letter=7\n" +
	"route.forwarded=10110\n" +
	"status.discovered=1443\n" +
	"status.sent=70757\n" +
	"tunnel.attempts=12\n" +
	"tunnel.established=24\n" +
	"tunnel.relay_learned=4\n" +
	"tunnel.relay_lost=1\n" +
	"tunnel.relayed=38\n" +
	"tunnel.upgraded=24\n" +
	"uri.learned=90\n"

// TestJoinCountersPinned: every count of a seeded join lands in the cell
// its name had, merged over the fleet the way the experiments read it.
func TestJoinCountersPinned(t *testing.T) {
	r := joinOverlay(t, 200, 6, false)
	var fleet metrics.Counter
	for _, n := range r.nodes {
		fleet.Merge(&n.Stats)
	}
	var got strings.Builder
	for _, name := range fleet.Names() {
		if v := fleet.Get(name); v != 0 {
			fmt.Fprintf(&got, "%s=%d\n", name, v)
		}
	}
	if got.String() != pinJoinCounters {
		t.Errorf("the join's fleet counters drifted:\n%s\nwant:\n%s", got.String(), pinJoinCounters)
	}
}
