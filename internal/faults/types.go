package faults

import (
	"wow/internal/phys"
	"wow/internal/sim"
)

// LinkBlackhole silently drops every packet between scopes A and B in both
// directions for the window [From, From+For) — a dead WAN link or a
// middlebox that has stopped forwarding. Unlike a host going down, traffic
// to third parties is untouched.
type LinkBlackhole struct {
	Name string // timeline label; default "blackhole"
	A, B Scope
	From sim.Duration // offset from scheduling time
	For  sim.Duration // window length; 0 = forever
}

// Label names the fault in timelines.
func (f LinkBlackhole) Label() string { return label(f.Name, "blackhole") }

func (f LinkBlackhole) arm(inj *Injector) {
	a, b := f.A.matcher(), f.B.matcher()
	inj.window(f.Label(), &rule{
		drop: true,
		match: func(src, dst *phys.Host) bool {
			return (a(src) && b(dst)) || (b(src) && a(dst))
		},
	}, f.From, f.For)
}

// Partition splits the network: packets crossing from side A to side B (or
// back) are dropped for the window, while traffic within each side flows
// normally. Leave B empty to partition A from the rest of the world.
type Partition struct {
	Name string // timeline label; default "partition"
	A, B Scope
	From sim.Duration
	For  sim.Duration
}

// Label names the fault in timelines.
func (f Partition) Label() string { return label(f.Name, "partition") }

func (f Partition) arm(inj *Injector) {
	a := f.A.matcher()
	b := f.B.matcher()
	if f.B.empty() {
		b = func(h *phys.Host) bool { return !a(h) }
	}
	inj.window(f.Label(), &rule{
		drop: true,
		match: func(src, dst *phys.Host) bool {
			return (a(src) && b(dst)) || (b(src) && a(dst))
		},
	}, f.From, f.For)
}

// LossBurst adds independent per-packet loss to every path touching the
// scope for the window — congestion or a flapping link, severe enough to
// stress retransmission and keepalive machinery without severing links.
type LossBurst struct {
	Name  string // timeline label; default "loss"
	Scope Scope
	Loss  float64 // added loss probability, composed with the path's own
	From  sim.Duration
	For   sim.Duration
}

// Label names the fault in timelines.
func (f LossBurst) Label() string { return label(f.Name, "loss") }

func (f LossBurst) arm(inj *Injector) {
	m := f.Scope.matcher()
	inj.window(f.Label(), &rule{
		loss:  f.Loss,
		match: func(src, dst *phys.Host) bool { return m(src) || m(dst) },
	}, f.From, f.For)
}

// LatencyBurst inflates one-way delay (and optionally jitter) on every
// path touching the scope for the window — a route flap or a saturated
// uplink, the regime that trips RTO backoff and ping timeouts without any
// actual loss.
type LatencyBurst struct {
	Name   string // timeline label; default "latency"
	Scope  Scope
	Extra  sim.Duration // added one-way delay
	Jitter sim.Duration // added jitter
	From   sim.Duration
	For    sim.Duration
}

// Label names the fault in timelines.
func (f LatencyBurst) Label() string { return label(f.Name, "latency") }

func (f LatencyBurst) arm(inj *Injector) {
	m := f.Scope.matcher()
	inj.window(f.Label(), &rule{
		extra:  f.Extra,
		jitter: f.Jitter,
		match:  func(src, dst *phys.Host) bool { return m(src) || m(dst) },
	}, f.From, f.For)
}

// CrashRestart kills one overlay process At after scheduling and restarts
// it Down later. Kill and Restart are caller-supplied closures (over an
// ipop.Node, a vm.VM, or a phys.Host's SetUp), keeping the injector
// decoupled from the layers above it. A nil Restart (or zero Down) makes
// the crash permanent.
type CrashRestart struct {
	Name    string // timeline label; default "crash"
	At      sim.Duration
	Down    sim.Duration
	Kill    func()
	Restart func()
}

// Label names the fault in timelines.
func (f CrashRestart) Label() string { return label(f.Name, "crash") }

func (f CrashRestart) arm(inj *Injector) {
	inj.S.After(f.At, func() {
		if inj.closed {
			return
		}
		f.Kill()
		inj.record(f.Label(), "kill")
		if f.Restart == nil || f.Down <= 0 {
			return
		}
		inj.S.After(f.Down, func() {
			if inj.closed {
				return
			}
			f.Restart()
			inj.record(f.Label(), "restart")
		})
	})
}

// Rebinder is anything whose translation state can be flushed; natsim.NAT
// satisfies it.
type Rebinder interface{ Rebind() }

// NATFlush drops a middlebox's whole translation table At after scheduling
// — the paper's §V-E scenario (a NAT reboot or timeout sweep), after which
// every established mapping must be re-learned through keepalive traffic.
type NATFlush struct {
	Name string // timeline label; default "natflush"
	NAT  Rebinder
	At   sim.Duration
}

// Label names the fault in timelines.
func (f NATFlush) Label() string { return label(f.Name, "natflush") }

func (f NATFlush) arm(inj *Injector) {
	inj.S.After(f.At, func() {
		if inj.closed {
			return
		}
		f.NAT.Rebind()
		inj.record(f.Label(), "flush")
	})
}

// ChurnTarget is one node a ChurnWave cycles, as kill/restart closures.
type ChurnTarget struct {
	Name    string
	Kill    func()
	Restart func()
}

// ChurnWave is correlated churn: starting at From, targets are killed in
// order, Spacing apart with up to Jitter of seeded random stagger, and
// each restarts Down after its own kill — the wave overlaps, so the
// overlay repairs under continued fire rather than one failure at a time.
type ChurnWave struct {
	Name    string // timeline label; default "churn"
	Targets []ChurnTarget
	From    sim.Duration
	Spacing sim.Duration
	Jitter  sim.Duration
	Down    sim.Duration
}

// Label names the fault in timelines.
func (f ChurnWave) Label() string { return label(f.Name, "churn") }

func (f ChurnWave) arm(inj *Injector) {
	at := f.From
	for _, t := range f.Targets {
		if f.Jitter > 0 {
			at += sim.Duration(inj.S.Rand().Int63n(int64(f.Jitter)))
		}
		lbl := f.Label()
		if t.Name != "" {
			lbl = f.Label() + "." + t.Name
		}
		CrashRestart{Name: lbl, At: at, Down: f.Down, Kill: t.Kill, Restart: t.Restart}.arm(inj)
		at += f.Spacing
	}
}
