package faults

import (
	"wow/internal/phys"
	"wow/internal/sim"
)

// The gray faults model failures that degrade rather than sever: latency
// variance and duty-cycled link flaps. They arm through the same window as
// the crisp wire faults (see Injector) and are deterministic and
// timeline-recorded like them.

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
