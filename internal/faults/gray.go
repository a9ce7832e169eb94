package faults

import (
	"wow/internal/phys"
	"wow/internal/sim"
)

// The gray faults model failures that degrade rather than sever: one-way
// blackholes, latency variance, duty-cycled link flaps and slow hosts.
// They arm through the same window as the crisp wire faults (see Injector)
// and are deterministic and timeline-recorded like the original seven.

// AsymmetricBlackhole drops packets in ONE direction only — From→To — for
// the window. The classic gray failure a bidirectional ping can't localize:
// requests arrive, answers vanish (or vice versa), and fixed-timeout
// detectors on the two sides reach opposite verdicts.
type AsymmetricBlackhole struct {
	Name     string // timeline label; default "asymhole"
	From, To Scope
	Start    sim.Duration // offset from scheduling time
	For      sim.Duration // window length; 0 = forever
}

// Label names the fault in timelines.
func (f AsymmetricBlackhole) Label() string { return label(f.Name, "asymhole") }

func (f AsymmetricBlackhole) arm(inj *Injector) {
	a, b := f.From.matcher(), f.To.matcher()
	inj.window(f.Label(), &rule{
		drop:  true,
		match: func(src, dst *phys.Host) bool { return a(src) && b(dst) },
	}, f.Start, f.For)
}

// JitterBurst adds latency VARIANCE to every path touching the scope: each
// packet is delayed by an extra hash-derived amount uniform in
// [0, 2·Amp) — mean +Amp, but wildly uneven packet to packet, the regime
// that makes fixed ping timeouts fire on live links. The delay is a pure
// function of (seed, send time, endpoints): no RNG draw, identical on
// every engine and shard count, and never below the base path latency.
type JitterBurst struct {
	Name  string // timeline label; default "jitter"
	Scope Scope
	Amp   sim.Duration // mean added delay; per-packet range [0, 2·Amp)
	Start sim.Duration
	For   sim.Duration
	Seed  uint64 // varies the per-packet pattern across instances
}

// Label names the fault in timelines.
func (f JitterBurst) Label() string { return label(f.Name, "jitter") }

func (f JitterBurst) arm(inj *Injector) {
	m := f.Scope.matcher()
	inj.window(f.Label(), &rule{
		pseudoJitter: f.Amp,
		seed:         f.Seed,
		match:        func(src, dst *phys.Host) bool { return m(src) || m(dst) },
	}, f.Start, f.For)
}

// LinkFlap cycles the paths between scopes A and B up and down: within
// each Period the link carries traffic for Up, then drops everything for
// the remainder — a bouncing interface or a route that keeps withdrawing.
// Leave B empty to flap A against the rest of the world. Only the window's
// begin/end are timeline-recorded; individual cycles are implied by the
// phase arithmetic (Start anchors the first up phase).
type LinkFlap struct {
	Name   string // timeline label; default "flap"
	A, B   Scope
	Period sim.Duration
	Up     sim.Duration // up time per period; the rest drops
	Start  sim.Duration
	For    sim.Duration
}

// Label names the fault in timelines.
func (f LinkFlap) Label() string { return label(f.Name, "flap") }

func (f LinkFlap) arm(inj *Injector) {
	a := f.A.matcher()
	b := f.B.matcher()
	if f.B.empty() {
		b = func(h *phys.Host) bool { return !a(h) }
	}
	inj.window(f.Label(), &rule{
		drop:       true,
		flapPeriod: f.Period,
		flapUp:     f.Up,
		match: func(src, dst *phys.Host) bool {
			return (a(src) && b(dst)) || (b(src) && a(dst))
		},
	}, f.Start, f.For)
}

// SlowNode models a host whose process has gone slow — CPU contention, GC
// stalls, a saturated disk: every packet DELIVERED to a host in scope is
// delayed by Extra before handling. Peers see inflated RTTs on all traffic
// through the host while the host itself stays (slowly) responsive — the
// half-alive state between healthy and dead.
type SlowNode struct {
	Name  string // timeline label; default "slow"
	Scope Scope
	Extra sim.Duration
	Start sim.Duration
	For   sim.Duration
}

// Label names the fault in timelines.
func (f SlowNode) Label() string { return label(f.Name, "slow") }

func (f SlowNode) arm(inj *Injector) {
	m := f.Scope.matcher()
	inj.window(f.Label(), &rule{
		extra: f.Extra,
		match: func(src, dst *phys.Host) bool { return m(dst) },
	}, f.Start, f.For)
}
