// Command condorpool realizes the deployment scenario the paper's
// introduction leads with: "a base WOW VM image can be installed with
// Condor binaries and be quickly replicated across multiple sites to host
// a homogeneously configured distributed Condor pool" (§I). The full
// Figure-1 testbed boots, every VM runs a startd advertising ClassAds to
// the central manager over the virtual network, and a stream of jobs is
// matched to machines by requirements and rank.
package main

import (
	"flag"
	"fmt"
	"sort"

	"wow/internal/middleware/condor"
	"wow/internal/sim"
	"wow/internal/testbed"
)

func main() {
	jobs := flag.Int("jobs", 150, "jobs to submit")
	seed := flag.Int64("seed", 7, "simulation seed")
	minSpeed := flag.Float64("min-speed", 0, "job Requirements: minimum machine speed")
	flag.Parse()

	fmt.Println("building the 33-node WOW; installing Condor in every VM image...")
	tb := testbed.Build(testbed.Config{Seed: *seed, Shortcuts: true})

	head := tb.VM("node002")
	cm, err := condor.NewCentralManager(head.Stack(), 30*sim.Second)
	if err != nil {
		panic(err)
	}
	schedd := condor.NewSchedd(head.Stack())
	cm.AttachSchedd(schedd)
	var startds []*condor.Startd
	for _, v := range tb.Workstations() {
		sd, err := condor.NewStartd(v, v.Spec().CPUSpeed, head.IP(), 60*sim.Second)
		if err != nil {
			panic(err)
		}
		startds = append(startds, sd)
	}
	tb.Sim.RunFor(2 * sim.Minute)
	fmt.Printf("collector sees %d machines across 6 firewalled domains\n\n", len(cm.Machines()))

	done := 0
	perMachine := map[string]int{}
	schedd.OnJobDone(func(r *condor.JobRecord) {
		if r.OK {
			done++
			perMachine[r.Machine]++
		}
	})
	start := tb.Sim.Now()
	for i := 0; i < *jobs; i++ {
		i := i
		tb.Sim.At(start.Add(sim.Duration(i)*sim.Second), func() {
			schedd.Submit(condor.JobAd{ID: i, CPU: 20 * sim.Second, MinSpeed: *minSpeed})
		})
	}
	deadline := start.Add(12 * sim.Hour)
	for done < *jobs && tb.Sim.Now() < deadline {
		tb.Sim.RunFor(sim.Minute)
	}
	elapsed := tb.Sim.Now().Sub(start).Seconds()
	fmt.Printf("%d/%d jobs completed in %.0fs (%.1f jobs/min)\n\n", done, *jobs, elapsed, float64(done)/(elapsed/60))

	names := make([]string, 0, len(perMachine))
	for n := range perMachine {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("jobs per machine (rank prefers fast machines; slow ones pull fewer):")
	for _, n := range names {
		fmt.Printf("  %-10s %3d\n", n, perMachine[n])
	}
	if *minSpeed > 0 {
		fmt.Printf("\nRequirements MinSpeed=%.2f filtered the pool to %d eligible machines\n",
			*minSpeed, eligible(cm, *minSpeed))
	}
	cm.Close()
	for _, sd := range startds {
		sd.Close()
	}
}

func eligible(cm *condor.CentralManager, min float64) int {
	n := 0
	for _, ad := range cm.Machines() {
		if ad.Speed >= min {
			n++
		}
	}
	return n
}
