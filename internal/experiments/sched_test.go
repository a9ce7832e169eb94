package experiments

import "testing"

func TestSchedulerComparison(t *testing.T) {
	r, err := RunSchedulerComparison(1, 150)
	if err != nil {
		t.Fatal(err)
	}
	if r.PBSJobsPerMinute <= 0 || r.CondorJobsPerMinute <= 0 {
		t.Fatalf("legs incomplete: %+v", r)
	}
	// Condor's negotiation cycle adds matchmaking latency PBS doesn't
	// have.
	if r.CondorMatchLatency <= 0.5 {
		t.Errorf("match latency %.2fs; negotiation cycles should be visible", r.CondorMatchLatency)
	}
	// Both move the stream at the same order of magnitude.
	if r.CondorJobsPerMinute < r.PBSJobsPerMinute/4 {
		t.Errorf("condor throughput %.1f << pbs %.1f", r.CondorJobsPerMinute, r.PBSJobsPerMinute)
	}
}

// The comparison is a function of its seed: the negotiator ranks machines
// of equal speed by name, not by the order a map hands them out.
func TestSchedulerComparisonRepeatable(t *testing.T) {
	a, err := RunSchedulerComparison(2, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSchedulerComparison(2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("two runs of seed 2 differ:\n%+v\n%+v", *a, *b)
	}
}
