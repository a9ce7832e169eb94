package condor

import (
	"fmt"
	"testing"

	"wow/internal/sim"
	"wow/internal/vip"
	"wow/internal/vip/viptest"
)

type pool struct {
	s       *sim.Simulator
	mesh    *viptest.Mesh
	cm      *CentralManager
	schedd  *Schedd
	nodes   []*viptest.Machine
	startds []*Startd
}

func newPool(t *testing.T, seed int64, machines int, speeds []float64, cycle sim.Duration) *pool {
	t.Helper()
	s := sim.New(seed)
	m := viptest.NewMesh(s, 10*sim.Millisecond)
	cmStack := m.AddStack(vip.MustParseIP("172.16.1.1"), vip.StackConfig{})
	cm, err := NewCentralManager(cmStack, cycle)
	if err != nil {
		t.Fatal(err)
	}
	scheddStack := m.AddStack(vip.MustParseIP("172.16.1.2"), vip.StackConfig{})
	schedd := NewSchedd(scheddStack)
	cm.AttachSchedd(schedd)
	p := &pool{s: s, mesh: m, cm: cm, schedd: schedd}
	for i := 0; i < machines; i++ {
		speed := 1.0
		if speeds != nil {
			speed = speeds[i%len(speeds)]
		}
		w := viptest.NewMachine(m, fmt.Sprintf("exec%02d", i), vip.MustParseIP("172.16.1.10")+vip.IP(i), speed)
		sd, err := NewStartd(w, speed, cmStack.IP(), 30*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		p.nodes = append(p.nodes, w)
		p.startds = append(p.startds, sd)
	}
	s.RunFor(5 * sim.Second) // first ads arrive
	return p
}

func TestAdsCollected(t *testing.T) {
	p := newPool(t, 1, 5, nil, 30*sim.Second)
	ads := p.cm.Machines()
	if len(ads) != 5 {
		t.Fatalf("collector has %d ads, want 5", len(ads))
	}
	if ads[0].State != "unclaimed" {
		t.Fatalf("fresh machine state %q", ads[0].State)
	}
}

// TestCloseStopsTickers: once the central manager and every startd are
// closed, no negotiation cycle and no advertisement fires. A job submitted
// after Close is never matched, every ad expires at the collector for want
// of a refresh, and with both tickers stopped the simulator runs empty.
func TestCloseStopsTickers(t *testing.T) {
	p := newPool(t, 4, 3, nil, 10*sim.Second)
	if got := len(p.cm.Machines()); got != 3 {
		t.Fatalf("collector has %d ads before Close, want 3", got)
	}
	p.cm.Close()
	for _, sd := range p.startds {
		sd.Close()
	}
	var rec *JobRecord
	p.schedd.OnJobDone(func(r *JobRecord) { rec = r })
	p.schedd.Submit(JobAd{ID: 1, CPU: sim.Second})
	p.s.RunFor(p.cm.AdTTL + sim.Minute)
	if rec != nil {
		t.Fatalf("a negotiation cycle matched job %d on %s after Close", rec.Ad.ID, rec.Machine)
	}
	if ads := p.cm.Machines(); len(ads) != 0 {
		t.Fatalf("%d ads still fresh %v after Close, want every one expired", len(ads), p.cm.AdTTL+sim.Minute)
	}
	if n := p.s.Pending(); n != 0 {
		t.Fatalf("%d events pending with every ticker closed, want none", n)
	}
}

func TestJobRunsViaMatchmaking(t *testing.T) {
	p := newPool(t, 2, 3, nil, 10*sim.Second)
	var rec *JobRecord
	p.schedd.OnJobDone(func(r *JobRecord) { rec = r })
	p.schedd.Submit(JobAd{ID: 1, CPU: 20 * sim.Second})
	p.s.RunFor(5 * sim.Minute)
	if rec == nil || !rec.OK {
		t.Fatalf("job did not complete: %+v", rec)
	}
	if rec.Matched < rec.Submitted || rec.Finished < rec.Matched {
		t.Fatalf("timeline broken: %+v", rec)
	}
	// Matchmaking waits for a negotiation cycle: matched later than
	// submitted by up to the cycle length.
	if rec.Machine == "" {
		t.Fatal("no machine recorded")
	}
}

func TestRankPrefersFastMachines(t *testing.T) {
	p := newPool(t, 3, 3, []float64{0.5, 1.0, 2.0}, 10*sim.Second)
	var rec *JobRecord
	p.schedd.OnJobDone(func(r *JobRecord) { rec = r })
	p.schedd.Submit(JobAd{ID: 1, CPU: 10 * sim.Second})
	p.s.RunFor(5 * sim.Minute)
	if rec == nil || rec.Machine != "exec02" {
		t.Fatalf("job ran on %q, want the fastest machine exec02", rec.Machine)
	}
}

func TestRequirementsFilterMachines(t *testing.T) {
	p := newPool(t, 4, 2, []float64{0.5, 0.6}, 10*sim.Second)
	done := false
	p.schedd.OnJobDone(func(r *JobRecord) { done = true })
	p.schedd.Submit(JobAd{ID: 1, CPU: sim.Second, MinSpeed: 1.5})
	p.s.RunFor(5 * sim.Minute)
	if done {
		t.Fatal("job ran despite unsatisfiable requirements")
	}
	if len(p.schedd.idle) != 1 {
		t.Fatalf("idle = %d", len(p.schedd.idle))
	}
	if rec := p.schedd.idle[0]; rec.Matched != 0 || rec.Machine != "" {
		t.Fatalf("unsatisfiable job matched to %q at %v", rec.Machine, rec.Matched)
	}
}

func TestPoolThroughput(t *testing.T) {
	p := newPool(t, 5, 8, nil, 10*sim.Second)
	const jobs = 100
	done := 0
	p.schedd.OnJobDone(func(r *JobRecord) {
		if r.OK {
			done++
		}
	})
	for i := 0; i < jobs; i++ {
		p.schedd.Submit(JobAd{ID: i, CPU: 30 * sim.Second})
	}
	p.s.RunFor(2 * sim.Hour)
	if done != jobs {
		t.Fatalf("completed %d of %d", done, jobs)
	}
	// All 8 machines should have been used.
	used := map[string]bool{}
	for _, r := range p.schedd.records {
		used[r.Machine] = true
	}
	if len(used) != 8 {
		t.Fatalf("only %d machines used", len(used))
	}
}

func TestCrashedStartdExpiresFromPool(t *testing.T) {
	p := newPool(t, 6, 2, nil, 10*sim.Second)
	p.cm.AdTTL = sim.Minute
	p.mesh.SetUp(p.nodes[0].S.IP(), false) // crash exec00
	p.s.RunFor(3 * sim.Minute)
	ads := p.cm.Machines()
	if len(ads) != 1 || ads[0].Name != "exec01" {
		t.Fatalf("crashed machine still advertised: %v", ads)
	}
	// Jobs still run on the survivor.
	done := false
	p.schedd.OnJobDone(func(r *JobRecord) { done = r.OK })
	p.schedd.Submit(JobAd{ID: 1, CPU: sim.Second})
	p.s.RunFor(5 * sim.Minute)
	if !done {
		t.Fatal("job did not run on surviving machine")
	}
}

func TestNegotiationCyclePacesMatching(t *testing.T) {
	// With a long cycle, match latency ≈ cycle; with a short one it's
	// small. (The matchmaking-vs-push scheduling contrast with PBS.)
	latency := func(cycle sim.Duration) float64 {
		p := newPool(t, 7, 2, nil, cycle)
		var rec *JobRecord
		p.schedd.OnJobDone(func(r *JobRecord) { rec = r })
		p.s.RunFor(cycle + sim.Second) // land between cycles
		p.schedd.Submit(JobAd{ID: 1, CPU: sim.Second})
		p.s.RunFor(sim.Hour)
		if rec == nil {
			t.Fatal("job never ran")
		}
		return rec.Matched.Sub(rec.Submitted).Seconds()
	}
	slow := latency(5 * sim.Minute)
	fast := latency(5 * sim.Second)
	if slow < 10*fast {
		t.Fatalf("cycle length should dominate match latency: slow=%.1fs fast=%.1fs", slow, fast)
	}
}
