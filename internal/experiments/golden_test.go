package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// The golden-seed tests pin complete experiment summaries, byte for byte.
// Experiment outputs are pure functions of the seed, so any drift here
// means a routing or scheduling decision changed. The expected values live
// inline (not in a golden file) so a diff shows exactly which protocol
// outcome moved. Re-captured with the tunnel-edge subsystem: CTMs now
// carry relay-candidate lists (larger wire size shifts event timing), and
// partition heal converges much faster — nodes that exhaust a partition
// peer's stale URIs fall back to tunnel edges through already-healed
// neighbors instead of waiting out further relink rounds, and a direct
// dial from a tunneled peer wins linking races outright (recovery 88 s
// versus 396 s before tunnels).

const goldenFig8Seed5 = "Figure 8 / §V-D1: 120 PBS/MEME jobs, shortcuts enabled\n" +
	"  wall-clock time: 149 s; throughput 48.5 jobs/minute\n" +
	"  job wall time: mean 27.4 s, std 5.9 s (failed: 0)\n" +
	"  execution-time histogram:\n" +
	"       8 s:   0.0% \n" +
	"      24 s:  89.2% #######################################################################\n" +
	"      40 s:   8.3% #######\n" +
	"      56 s:   2.5% ##\n" +
	"      72 s:   0.0% \n" +
	"      88 s:   0.0% \n" +
	"  job share by node: node032=1.7% node034=2.5%\n"

const goldenPartitionHealSeed5 = "Partition repair: 180 s site cut (NWU + half of PlanetLab vs rest)\n" +
	"  cut confirmed mid-window: true\n" +
	"  all probe pairs recovered: true\n" +
	"partition-heal           recovery: 88.0s\n" +
	"  ping.dead              388\n" +
	"  ping.stale             0\n" +
	"  ping.fast_probe        0\n" +
	"  close.forwarded        2797\n" +
	"  handoff.sent           0\n" +
	"  handoff.received       0\n" +
	"  handoff.linked         0\n" +
	"  relink.attempts        1156\n" +
	"  relink.success         201\n" +
	"  relink.giveup          0\n" +
	"  link.giveup            33\n" +
	"  fault timeline:\n" +
	"    t=429.000s partition begin\n" +
	"    t=609.000s partition end\n"

const goldenSymRingSeed5 = "All-symmetric-NAT ring: 20 NATed + 3 public routers, seed 5\n" +
	"  routable: 100.0%; ring: 0 missing near links (6 direct, 19 tunneled)\n" +
	"  tunnels: 157 established, 18 upgraded; relays: 52 lost, 4 reselected\n" +
	"  vip ping (sym ws <-> sym ws): 4/4\n" +
	"  migration to public host: vip outage 26.4 s\n"

// The shape tests of the harnesses whose options became constants, or whose
// recovery probes became shared helpers, pin their summaries too, as captured
// before the change: seed 1, the tests' own options.
const (
	pinFig6Seed1 = "Figure 6: SCP transfer across server migration (UFL -> NWU)\n" +
		"  completed without restart: true\n" +
		"  pre-migration rate:  1.19 MB/s (paper: 1.36)\n" +
		"  post-migration rate: 0.29 MB/s (paper: 1.83)\n" +
		"  stall (no routability): 575 s (paper: ~480 s)\n" +
		"  total transfer time: 840 s\n"
	pinFig7Seed1 = "Figure 7: PBS/MEME job stream across worker migration\n" +
		"  all jobs completed: true\n" +
		"  baseline mean: 23.2 s\n" +
		"  loaded-host mean: 56.3 s\n" +
		"  in-transit job: 582 s (stretched by the WAN migration latency)\n" +
		"  post-migration mean: 23.2 s (unloaded destination host)\n"
	pinTable3Seed1 = "Table III: fastDNAml-PVM execution times and speedups\n" +
		"  sequential node002:     2791 s (paper: 22272)\n" +
		"  sequential node034:     5697 s (paper: 45191)\n" +
		"  15 nodes, shortcuts:       376 s  speedup  7.4 (paper: 2439, 9.1x)\n" +
		"  30 nodes, no shortcuts:   1002 s  speedup  2.8 (paper: 2033, 11.0x)\n" +
		"  30 nodes, shortcuts:       309 s  speedup  9.0 (paper: 1642, 13.6x)\n"
	pinChurnSeed1     = "Churn: killed 29/118 routers; virtual network healed in 106 s (healed=true)\n"
	pinNATRebindSeed1 = "§V-E NAT rebinding resilience (home node, translation tables flushed):\n" +
		"  trial 1: connectivity restored after 15 s\n" +
		"  trial 2: connectivity restored after 6 s\n" +
		"  all trials recovered autonomously: true (paper: links re-established, no restart)\n"
	pinOutageSeed1 = "§V-C no-routability window after IPOP kill+restart (library defaults): mean 8 s, max 15 s over 2 trials\n" +
		"  (the paper reports ~480 s; this implementation re-links stale ring state on rejoin,\n" +
		"   so bare restarts heal in seconds — the paper-scale outage appears in Figure 6,\n" +
		"   where the VM image transfer dominates)\n"
	pinMigrationOutageSeed1 = "§V-C migration: overlay ring-repair window after IPOP shutdown\n" +
		"  cold kill (peers time out):    93.0 s\n" +
		"  graceful leave (handoff):       1.0 s\n" +
		"migration-cold           recovery: 93.0s\n" +
		"  ping.dead              8\n" +
		"  ping.stale             0\n" +
		"  ping.fast_probe        0\n" +
		"  close.forwarded        65\n" +
		"  handoff.sent           0\n" +
		"  handoff.received       0\n" +
		"  handoff.linked         0\n" +
		"  relink.attempts        1\n" +
		"  relink.success         0\n" +
		"  relink.giveup          0\n" +
		"  link.giveup            0\n" +
		"migration-graceful       recovery: 1.0s\n" +
		"  ping.dead              0\n" +
		"  ping.stale             0\n" +
		"  ping.fast_probe        0\n" +
		"  close.forwarded        0\n" +
		"  handoff.sent           0\n" +
		"  handoff.received       4\n" +
		"  handoff.linked         5\n" +
		"  relink.attempts        0\n" +
		"  relink.success         0\n" +
		"  relink.giveup          0\n" +
		"  link.giveup            0\n"
	pinCorrelatedChurnSeed1 = "Correlated churn: wave cycled 7/30 routers (overlapping outages)\n" +
		"  all probe pairs recovered: true\n" +
		"correlated-churn         recovery: 36.1s\n" +
		"  ping.dead              64\n" +
		"  ping.stale             0\n" +
		"  ping.fast_probe        3\n" +
		"  close.forwarded        578\n" +
		"  handoff.sent           0\n" +
		"  handoff.received       0\n" +
		"  handoff.linked         0\n" +
		"  relink.attempts        29\n" +
		"  relink.success         1\n" +
		"  relink.giveup          0\n" +
		"  link.giveup            0\n" +
		"  fault timeline:\n" +
		"    t=431.143s churn.000 kill\n" +
		"    t=436.801s churn.004 kill\n" +
		"    t=443.855s churn.008 kill\n" +
		"    t=449.532s churn.012 kill\n" +
		"    t=454.732s churn.017 kill\n" +
		"    t=461.369s churn.021 kill\n" +
		"    t=468.384s churn.025 kill\n" +
		"    t=476.143s churn.000 restart\n" +
		"    t=481.801s churn.004 restart\n" +
		"    t=488.855s churn.008 restart\n" +
		"    t=494.532s churn.012 restart\n" +
		"    t=499.732s churn.017 restart\n" +
		"    t=506.369s churn.021 restart\n" +
		"    t=513.384s churn.025 restart\n"
)

// pinned fails t when a summary differs from its pin.
func pinned(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s summary drifted; %s\nfull output:\n%s", name, diffLine(got, want), got)
	}
}

// diffLine locates the first line where got and want diverge, for a
// readable failure message.
func diffLine(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return "outputs differ in length"
}

func TestGoldenSeedFig8(t *testing.T) {
	res, err := RunFig8(Fig8Opts{Seed: 5, Jobs: 120, Routers: 40, PlanetLabHosts: 8, Shortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != goldenFig8Seed5 {
		t.Errorf("fig8 seed-5 summary drifted from pre-refactor baseline; %s\nfull output:\n%s",
			diffLine(got, goldenFig8Seed5), got)
	}
}

func TestGoldenSeedPartitionHeal(t *testing.T) {
	res, err := RunPartitionHeal(FaultOpts{Seed: 5, Routers: 30, PlanetLabHosts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != goldenPartitionHealSeed5 {
		t.Errorf("partition-heal seed-5 summary drifted from pre-refactor baseline; %s\nfull output:\n%s",
			diffLine(got, goldenPartitionHealSeed5), got)
	}
}

// TestGoldenSeedSymRing pins the all-symmetric-NAT ring summary: tunnel
// establishment, relay churn, in-place upgrades and the migration outage
// are all pure functions of the seed, so drift here means the tunnel
// subsystem's decisions moved.
func TestGoldenSeedSymRing(t *testing.T) {
	res, err := RunSymmetricRing(SymRingOpts{Seed: 5, Routers: 3, Nodes: 20, Pings: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != goldenSymRingSeed5 {
		t.Errorf("symmetric-ring seed-5 summary drifted; %s\nfull output:\n%s",
			diffLine(got, goldenSymRingSeed5), got)
	}
}

// TestRunScale exercises the scale harness end to end at a size small
// enough for the unit-test budget: the overlay must fully converge and
// deliver every measured packet.
func TestRunScale(t *testing.T) {
	res, err := RunScale(ScaleOpts{Seed: 3, Nodes: 300, Packets: 300, Sites: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutableFrac != 1 {
		t.Errorf("routable fraction = %.3f, want 1.0", res.RoutableFrac)
	}
	if res.Delivered != res.PacketsSent {
		t.Errorf("delivered %d of %d packets", res.Delivered, res.PacketsSent)
	}
	if res.AvgHops <= 1 {
		t.Errorf("avg hops = %.2f, want multi-hop routes", res.AvgHops)
	}
	if !strings.Contains(res.String(), "300-node overlay") {
		t.Errorf("summary missing node count:\n%s", res)
	}
}
