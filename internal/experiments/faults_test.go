package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestGracefulLeaveShrinksWindow is the acceptance check for the graceful
// migration path: the overlay's ring-repair window with a leave/handoff
// must be strictly smaller than with the paper's cold kill.
func TestGracefulLeaveShrinksWindow(t *testing.T) {
	res, err := RunMigrationOutage(FaultOpts{Seed: 1, Routers: 24, PlanetLabHosts: 6})
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
	// actually used the handoff protocol. Both counts are read back from
	// the JSON a -json run emits, so the counter tables must marshal.
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Baseline, Graceful struct{ Counters map[string]int64 }
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Graceful.Counters["handoff.received"] == 0 {
		t.Errorf("graceful run recorded no handoffs: %s", raw)
	}
	if got.Baseline.Counters["ping.dead"] == 0 {
		t.Errorf("cold run recorded no ping deaths: %s", raw)
	}
	if !strings.Contains(res.String(), "ring-repair window") {
		t.Error("String malformed")
	}
	pinned(t, "migration-outage", res.String(), pinMigrationOutageSeed1)
}

func TestPartitionHealRecovers(t *testing.T) {
	res, err := RunPartitionHeal(FaultOpts{Seed: 1, Routers: 30, PlanetLabHosts: 6})
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
	if res.Report.Counters["relink.attempts"] == 0 {
		t.Errorf("no re-link attempts recorded:\n%s", res.Report.String())
	}
	if len(res.Timeline) != 2 {
		t.Errorf("timeline %v, want begin+end", res.Timeline)
	}
}

func TestCorrelatedChurnRecovers(t *testing.T) {
	res, err := RunCorrelatedChurn(FaultOpts{Seed: 1, Routers: 30, PlanetLabHosts: 6})
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

func TestRecoveryReportString(t *testing.T) {
	r := &RecoveryReport{Scenario: "partition-heal", RecoverySec: 12.5,
		Counters: map[string]int64{"relink.success": 3}}
	s := r.String()
	if !strings.Contains(s, "partition-heal") || !strings.Contains(s, "12.5s") {
		t.Fatalf("missing scenario/recovery line:\n%s", s)
	}
	// Every standard counter appears, including zeros.
	for _, name := range recoveryNames {
		if !strings.Contains(s, name) {
			t.Fatalf("missing %s in:\n%s", name, s)
		}
	}
	r.RecoverySec = -1
	if !strings.Contains(r.String(), "DID NOT RECOVER") {
		t.Fatal("negative recovery not flagged")
	}
}
