// Command migration demonstrates §V-C: live wide-area migration of a
// virtual workstation under two unmodified TCP applications. An SCP
// client downloads a 720 MB file from a server VM that is migrated from
// UFL to NWU mid-transfer, and a PBS worker is migrated while running a
// job that reads and writes an NFS-mounted home directory. Both resume
// with no application-level restart: the VM keeps its virtual IP, the
// restarted IPOP process rejoins the overlay, and TCP retransmission
// rides out the outage.
package main

import (
	"flag"
	"fmt"
	"os"

	"wow/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 7, "simulation seed")
	flag.Parse()

	fmt.Println("=== SCP transfer across server migration (Figure 6) ===")
	f6, err := experiments.RunFig6(experiments.Fig6Opts{Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "migration: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(f6.String())

	// Print the transfer curve every ~60 s of virtual time.
	fmt.Println("  client-side bytes over time:")
	for i := 0; i < f6.Progress.Len(); i += 12 {
		t, b := f6.Progress.At(i)
		fmt.Printf("    t=%5.0fs  %6.1f MB\n", t, b/(1<<20))
	}
	fmt.Println()

	fmt.Println("=== PBS job stream across worker migration (Figure 7) ===")
	f7, err := experiments.RunFig7(experiments.Fig7Opts{Seed: *seed, Jobs: 110})
	if err != nil {
		fmt.Fprintf(os.Stderr, "migration: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(f7.String())
	fmt.Println("  per-job wall times (every 8th job):")
	for i, p := range f7.Points {
		if i%8 == 0 || p.Phase == "migrating" {
			fmt.Printf("    job %3d  %7.1f s  [%s]\n", p.JobID, p.WallSeconds, p.Phase)
		}
	}
}
