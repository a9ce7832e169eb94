package experiments

import (
	"fmt"
	"strings"

	"wow/internal/metrics"
	"wow/internal/middleware/scp"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/testbed"
	"wow/internal/vm"
)

// Fig6Opts parameterizes the SCP-across-migration experiment of §V-C1.
type Fig6Opts struct {
	Seed int64
	// FileBytes is the transferred file; the paper used 720 MB.
	FileBytes int64
}

func (o *Fig6Opts) fillDefaults() {
	if o.FileBytes == 0 {
		o.FileBytes = 720 << 20
	}
}

// fig6MigrateAt is the elapsed transfer time when the migration starts
// (~200 s in the paper).
const fig6MigrateAt = 200 * sim.Second

// paperImageBps is the VM image copy rate of the paper's migrations
// (Figures 6 and 7): with the default 768 MB image, 1.6 MB/s yields the
// paper's ~8 minute outage.
const paperImageBps = 1.6 * (1 << 20)

// Fig6Result captures the client-side transfer profile across the
// server's wide-area migration.
type Fig6Result struct {
	// Progress is (seconds, bytes on client disk) sampled every 5 s —
	// the Figure 6 curve.
	Progress metrics.Series
	// PreMBs / PostMBs are sustained transfer rates before migration and
	// after resumption (paper: 1.36 and 1.83 MB/s).
	PreMBs, PostMBs float64
	// StallSeconds is the longest window with no progress (paper: ~8
	// minutes of no routability).
	StallSeconds float64
	// Completed reports whether the full file arrived with no
	// application-level restart.
	Completed bool
	// TotalSeconds is the end-to-end transfer time.
	TotalSeconds float64
}

// String renders the summary.
func (r *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: SCP transfer across server migration (UFL -> NWU)\n")
	fmt.Fprintf(&b, "  completed without restart: %v\n", r.Completed)
	fmt.Fprintf(&b, "  pre-migration rate:  %.2f MB/s (paper: 1.36)\n", r.PreMBs)
	fmt.Fprintf(&b, "  post-migration rate: %.2f MB/s (paper: 1.83)\n", r.PostMBs)
	fmt.Fprintf(&b, "  stall (no routability): %.0f s (paper: ~480 s)\n", r.StallSeconds)
	fmt.Fprintf(&b, "  total transfer time: %.0f s\n", r.TotalSeconds)
	return b.String()
}

// RunFig6 reproduces §V-C1: an SCP client at NWU downloads a 720 MB file
// from a server VM at UFL; mid-transfer the server VM is migrated to NWU
// (IPOP killed, VM suspended, image copied, VM resumed, IPOP restarted)
// and the transfer must resume without any application action.
func RunFig6(opts Fig6Opts) (*Fig6Result, error) {
	return runFig6(opts, (*vm.VM).Migrate)
}

// runFig6 is the experiment body; migrate is the migration method under
// test (suspend-transfer-resume for Figure 6, live pre-copy for the
// RunLiveMigration comparison).
func runFig6(opts Fig6Opts, migrate func(*vm.VM, *phys.Host, vm.MigrationConfig, func()) error) (*Fig6Result, error) {
	opts.fillDefaults()
	tb := testbed.Build(testbed.Config{
		Seed:       opts.Seed,
		Shortcuts:  true,
		SettleTime: 5 * sim.Minute,
	})
	server := tb.VM("node003") // UFL
	client := tb.VM("node017") // NWU

	srv, err := scp.NewServer(server.Stack())
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	srv.Put("/data/dataset.tar", opts.FileBytes)

	// Warm the client-server path so the transfer starts over a formed
	// shortcut, as in the paper (nodes had communicated before).
	warmPath(tb.Sim, client, server, 2*sim.Minute)

	start := tb.Sim.Now()
	tr := scp.Fetch(client.Stack(), server.IP(), "/data/dataset.tar", 5*sim.Second, nil)

	var migErr error
	tb.Sim.At(start.Add(fig6MigrateAt), func() {
		dst := tb.NewHostAt("northwestern.edu")
		if err := migrate(server, dst, vm.MigrationConfig{TransferBps: paperImageBps}, nil); err != nil {
			migErr = fmt.Errorf("fig6: migrate: %w", err)
			tb.Sim.Stop()
		}
	})

	waitFor(tb.Sim, sim.Minute, 4*sim.Hour, func() bool { return tr.Done || migErr != nil })
	if migErr != nil {
		return nil, migErr
	}

	res := &Fig6Result{
		Progress:  tr.Progress,
		Completed: tr.Done && tr.Err == nil && tr.Received == opts.FileBytes,
	}
	res.TotalSeconds = tb.Sim.Now().Sub(start).Seconds()

	// Derive rates and stall from the progress series.
	var stall, preEnd float64
	var lastT, lastB float64
	migAt := fig6MigrateAt.Seconds() + start.Seconds()
	for i := 0; i < res.Progress.Len(); i++ {
		t, bytes := res.Progress.At(i)
		if bytes == lastB && lastT > 0 {
			if s := t - lastT; s > stall {
				stall = s
			}
		} else {
			lastT = t
		}
		if t <= migAt {
			preEnd = bytes
		}
		lastB = bytes
	}
	res.StallSeconds = stall
	res.PreMBs = preEnd / fig6MigrateAt.Seconds() / (1 << 20)
	// Post rate: the sustained transfer rate once the connection has
	// recovered — the slope over the last minute of progress samples
	// (the paper quotes sustained bandwidths on both sides of the
	// migration).
	if res.Completed && res.Progress.Len() > 13 {
		n := res.Progress.Len()
		t1, b1 := res.Progress.At(n - 1)
		t0, b0 := res.Progress.At(n - 13) // 12 samples × 5 s = 60 s window
		if t1 > t0 && b1 > b0 {
			res.PostMBs = (b1 - b0) / (t1 - t0) / (1 << 20)
		}
	}
	return res, nil
}
