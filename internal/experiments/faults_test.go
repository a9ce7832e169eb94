package experiments

import (
	"strings"
	"testing"
)

// TestGracefulLeaveShrinksWindow is the acceptance check for the graceful
// migration path: the overlay's ring-repair window with a leave/handoff
// must be strictly smaller than with the paper's cold kill.
func TestGracefulLeaveShrinksWindow(t *testing.T) {
	res, err := RunMigrationOutage(MigrationOutageOpts{Seed: 1, Routers: 24, PlanetLabHosts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineWindowSec < 0 || res.GracefulWindowSec < 0 {
		t.Fatalf("window censored: baseline=%.1f graceful=%.1f", res.BaselineWindowSec, res.GracefulWindowSec)
	}
	if res.GracefulWindowSec >= res.BaselineWindowSec {
		t.Fatalf("graceful window %.1fs not smaller than cold-kill window %.1fs",
			res.GracefulWindowSec, res.BaselineWindowSec)
	}
	// The cold kill heals via ping timeouts; the graceful path must have
	// actually used the handoff protocol.
	if res.Graceful.Counters.Get("handoff.received") == 0 {
		t.Errorf("graceful run recorded no handoffs: %s", res.Graceful.Counters.String())
	}
	if res.Baseline.Counters.Get("ping.dead") == 0 {
		t.Errorf("cold run recorded no ping deaths: %s", res.Baseline.Counters.String())
	}
	if !strings.Contains(res.String(), "ring-repair window") {
		t.Error("String malformed")
	}
	pinned(t, "migration-outage", res.String(), pinMigrationOutageSeed1)
}

func TestPartitionHealRecovers(t *testing.T) {
	res, err := RunPartitionHeal(PartitionHealOpts{Seed: 1, Routers: 30, PlanetLabHosts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CutConfirmed {
		t.Fatal("partition did not sever cross-site traffic")
	}
	if !res.Healed {
		t.Fatalf("overlay did not re-merge after the partition healed:\n%s", res.String())
	}
	if res.Report.RecoverySec < 0 {
		t.Fatal("report missing recovery time")
	}
	// Re-merging severed rings requires the repair overlord's cached
	// direct re-links.
	if res.Report.Counters.Get("relink.attempts") == 0 {
		t.Errorf("no re-link attempts recorded: %s", res.Report.Counters.String())
	}
	if len(res.Timeline) != 2 {
		t.Errorf("timeline %v, want begin+end", res.Timeline)
	}
}

func TestCorrelatedChurnRecovers(t *testing.T) {
	res, err := RunCorrelatedChurn(ChurnWaveOpts{Seed: 1, Routers: 30, PlanetLabHosts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healed {
		t.Fatalf("overlay did not heal after the churn wave:\n%s", res.String())
	}
	if res.Churned == 0 || len(res.Timeline) != 2*res.Churned {
		t.Errorf("timeline has %d entries for %d churned routers, want kill+restart each",
			len(res.Timeline), res.Churned)
	}
	pinned(t, "correlated-churn", res.String(), pinCorrelatedChurnSeed1)
}
