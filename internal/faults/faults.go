// Package faults is a deterministic, sim-clock-driven fault injector for
// the simulated WAN. Composable Fault values schedule site-to-site
// partitions, latency bursts, jitter bursts, link flaps, node
// crash+restart cycles, NAT table flushes and correlated churn waves
// against any phys.Network (and hence any testbed built on one), recording
// a per-fault timeline as they fire.
//
// Everything is driven off the shared sim.Simulator: under a fixed seed
// two runs of the same scenario produce identical timelines, so recovery
// measurements in internal/experiments are exactly repeatable.
package faults

import (
	"fmt"
	"strings"

	"wow/internal/phys"
	"wow/internal/sim"
)

// Injector owns the fault schedule for one network. It installs itself as
// the network's Perturb hook; faults are armed with Schedule and fire on
// the simulation clock.
//
// Every rule is installed before the engine runs — Schedule is called
// between runs — and never changes while shards execute: a wire fault's
// rule evaluates its window against each packet's sender-shard clock, so
// every fault is safe on any shard count.
//
// The hook sees every packet whose destination host the sender's shard
// resolves: a host in a realm the sender's chain reaches directly, or behind
// a middlebox chain pinned to the sender's shard (translated at send time).
// A packet to a chain pinned to another shard is translated there, at
// arrival, and bypasses the hook — on one shard no packet does.
type Injector struct {
	S   *sim.Simulator
	Net *phys.Network

	rules    []*rule
	timeline []TimelineEntry
	// closed makes every already-scheduled fault event a no-op: Close
	// must fully detach the injector even though simulator events cannot
	// be unscheduled retroactively.
	closed bool
}

// New creates an injector and installs it as net's Perturb hook.
func New(s *sim.Simulator, net *phys.Network) *Injector {
	inj := &Injector{S: s, Net: net}
	net.Perturb = inj.perturb
	return inj
}

// Close uninstalls the injector from its network. Scheduled wire faults
// stop having any effect, and every fault event already sitting on the
// simulator — window begin/end, crash restarts, NAT flushes — becomes a
// no-op instead of firing into the detached network.
func (inj *Injector) Close() {
	inj.closed = true
	inj.rules = nil
	inj.Net.Perturb = nil
}

// Fault is one schedulable fault scenario. The concrete types in this
// package compose freely: schedule any number against one injector.
type Fault interface {
	// Label names the fault in the timeline.
	Label() string
	arm(inj *Injector)
}

// Schedule arms faults on the injector's simulator.
func (inj *Injector) Schedule(faults ...Fault) {
	for _, f := range faults {
		f.arm(inj)
	}
}

// TimelineEntry is one recorded fault event, in virtual time.
type TimelineEntry struct {
	At    sim.Time
	Fault string
	Event string // begin, end, kill, restart, flush
}

// String renders "t=12.000s partition begin".
func (e TimelineEntry) String() string {
	return fmt.Sprintf("%s %s %s", e.At, e.Fault, e.Event)
}

// Timeline returns a copy of the fault events recorded so far, in firing
// order.
func (inj *Injector) Timeline() []TimelineEntry {
	return append([]TimelineEntry(nil), inj.timeline...)
}

// TimelineString renders the timeline one event per line — convenient for
// golden comparisons in determinism tests.
func (inj *Injector) TimelineString() string {
	var b strings.Builder
	for _, e := range inj.timeline {
		fmt.Fprintln(&b, e)
	}
	return b.String()
}

func (inj *Injector) record(label, event string) {
	inj.timeline = append(inj.timeline, TimelineEntry{At: inj.S.Now(), Fault: label, Event: event})
}

// rule is one wire perturbation. It sits in the injector's slice from
// Schedule to Close and evaluates its activation window — and any up/down
// duty cycle — against the packet clock, a pure function of (now, src, dst)
// that is safe on every shard of a parallel engine.
type rule struct {
	match  func(src, dst *phys.Host) bool
	drop   bool
	extra  sim.Duration
	jitter sim.Duration

	// Activation window.
	from  sim.Time
	until sim.Time // 0 = forever
	// flapPeriod/flapUp give a drop rule a duty cycle: within each
	// period the link is up for flapUp, then the rule applies (drops)
	// for the remainder.
	flapPeriod sim.Duration
	flapUp     sim.Duration
	// pseudoJitter adds a deterministic per-packet extra delay drawn
	// uniformly from [0, 2·pseudoJitter) by hashing (seed, now, src,
	// dst) — latency variance without consulting any shard's RNG, and
	// never below the base path latency (the parallel engine's lookahead
	// floor stays valid).
	pseudoJitter sim.Duration
	seed         uint64
}

// activeAt reports whether the rule applies to a packet sent at now.
func (r *rule) activeAt(now sim.Time) bool {
	if now < r.from || (r.until > r.from && now >= r.until) {
		return false
	}
	if r.flapPeriod > 0 {
		// Up first, then down for the rest of the period.
		phase := sim.Duration((now - r.from) % sim.Time(r.flapPeriod))
		if phase < r.flapUp {
			return false
		}
	}
	return true
}

// pseudoRand is a deterministic 64-bit mix (FNV-1a) over a fault seed, a
// timestamp and the two endpoint names — the gray faults' replacement for
// RNG draws, identical on every engine and shard count.
func pseudoRand(seed uint64, now sim.Time, a, b string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(seed)
	mix(uint64(now))
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime
	}
	return h
}

// perturb is the phys.Network hook: compose every active rule that matches
// the packet's path. A drop rule wins outright and latency adds. phys
// counts a dropped packet as lost.fault on the sending shard.
func (inj *Injector) perturb(src, dst *phys.Host, pm phys.PathModel) (phys.PathModel, bool) {
	now := src.Sim().Now()
	for _, r := range inj.rules {
		if !r.activeAt(now) || !r.match(src, dst) {
			continue
		}
		if r.drop {
			return pm, true
		}
		if r.pseudoJitter > 0 {
			span := uint64(2 * r.pseudoJitter)
			pm.OneWay += sim.Duration(pseudoRand(r.seed, now, src.Name, dst.Name) % span)
		}
		pm.OneWay += r.extra
		pm.Jitter += r.jitter
	}
	return pm, false
}

// window installs r at once, while no shard runs, active from `from` after
// arming for dur (a zero dur leaves it active forever), and schedules
// record-only begin/end marks on the injector's own simulator for the
// timeline.
func (inj *Injector) window(label string, r *rule, from, dur sim.Duration) {
	now := inj.S.Now()
	r.from = now.Add(from)
	if dur > 0 {
		r.until = now.Add(from + dur)
	}
	inj.rules = append(inj.rules, r)
	inj.S.After(from, func() {
		if !inj.closed {
			inj.record(label, "begin")
		}
	})
	if dur > 0 {
		inj.S.After(from+dur, func() {
			if !inj.closed {
				inj.record(label, "end")
			}
		})
	}
}

// Note records a custom timeline entry ("kill", "restart", …) for fault
// actions a harness drives itself — e.g. node crashes scheduled on other
// shards of a parallel engine, where only the bookkeeping belongs on the
// injector's shard. No-op after Close.
func (inj *Injector) Note(label, event string) {
	if inj.closed {
		return
	}
	inj.record(label, event)
}

// Scope names the hosts a fault touches, by host name and/or site name; an
// empty Scope matches every host.
type Scope struct {
	Hosts []string
	Sites []string
}

// On is shorthand for a host-name scope.
func On(hosts ...string) Scope { return Scope{Hosts: hosts} }

// AtSites is shorthand for a site-name scope.
func AtSites(sites ...string) Scope { return Scope{Sites: sites} }

func (sc Scope) empty() bool { return len(sc.Hosts) == 0 && len(sc.Sites) == 0 }

func (sc Scope) matcher() func(h *phys.Host) bool {
	if sc.empty() {
		return func(*phys.Host) bool { return true }
	}
	hosts := make(map[string]bool, len(sc.Hosts))
	for _, n := range sc.Hosts {
		hosts[n] = true
	}
	sites := make(map[string]bool, len(sc.Sites))
	for _, n := range sc.Sites {
		sites[n] = true
	}
	return func(h *phys.Host) bool {
		return hosts[h.Name] || (h.Site != nil && sites[h.Site.Name])
	}
}

func label(name, def string) string {
	if name != "" {
		return name
	}
	return def
}
