package experiments

import "testing"

func TestNATRebindHealsAutonomously(t *testing.T) {
	r, err := RunNATRebind(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Recovered {
		t.Fatalf("NAT rebind did not heal: %v", r.OutageSeconds)
	}
	for i, s := range r.OutageSeconds {
		if s > 120 {
			t.Errorf("trial %d took %.0fs to heal; want under ~2 ping cycles", i, s)
		}
	}
	pinned(t, "nat-rebind", r.String(), pinNATRebindSeed1)
}

func TestChurnHeals(t *testing.T) {
	r := RunChurn(1)
	if !r.Healed {
		t.Fatal("overlay did not heal after 25% router loss")
	}
	if r.RecoverySeconds > 600 {
		t.Errorf("healing took %.0fs", r.RecoverySeconds)
	}
	pinned(t, "churn", r.String(), pinChurnSeed1)
}

func TestLiveMigrationShrinksStall(t *testing.T) {
	r, err := RunLiveMigration(1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.BothCompleted {
		t.Fatal("a transfer failed")
	}
	if r.LiveStallSeconds >= r.SuspendStallSeconds/4 {
		t.Errorf("live migration stall %.0fs not much better than suspend %.0fs",
			r.LiveStallSeconds, r.SuspendStallSeconds)
	}
}
