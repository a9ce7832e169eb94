// Package vm models the virtual workstations of WOW: system VMs (the
// paper used VMware GSX/Workstation/VMPlayer) that carry a homogeneous
// guest software stack, execute compute jobs at the speed of their
// heterogeneous physical hosts, and migrate across wide-area domains.
//
// Migration follows §V-C exactly: the user-level IPOP process is killed,
// the VM is suspended, its memory image and copy-on-write disk logs are
// transferred to the destination host, the VM resumes, and IPOP restarts
// and rejoins the overlay — the virtual IP and all guest connection state
// survive untouched.
package vm

import (
	"fmt"

	"wow/internal/brunet"
	"wow/internal/ipop"
	"wow/internal/phys"
	"wow/internal/sim"
	"wow/internal/vip"
)

// Spec describes a virtual workstation's performance characteristics.
type Spec struct {
	Name string
	// CPUSpeed is the guest's compute speed relative to the testbed's
	// baseline (the 2.4 GHz Xeon of node002, Table I).
	CPUSpeed float64
	// VirtOverhead multiplies CPU time to account for virtualization
	// (§V-D1 reports ~13% for MEME, i.e. 1.13).
	VirtOverhead float64
	// ImageBytes is the state transferred on migration (memory image
	// plus copy-on-write disk logs).
	ImageBytes int64
}

func (s *Spec) fillDefaults() {
	if s.CPUSpeed == 0 {
		s.CPUSpeed = 1
	}
	if s.VirtOverhead == 0 {
		s.VirtOverhead = 1.13
	}
	if s.ImageBytes == 0 {
		s.ImageBytes = 768 << 20 // 512 MB memory + 256 MB COW logs
	}
}

// task is one queued unit of guest CPU work.
type task struct {
	remaining sim.Duration // baseline CPU-seconds still owed
	done      func()
}

// VM is one virtual workstation: an IPOP endpoint, a virtual IP stack and
// a single-core CPU executing queued jobs, with suspend/resume and
// wide-area migration.
type VM struct {
	spec     Spec
	host     *phys.Host
	node     *ipop.Node
	stack    *vip.Stack
	sim      *sim.Simulator
	boot     []brunet.URI
	hostLoad float64

	running   bool
	suspended bool
	queue     []*task
	current   *task
	started   sim.Time
	compEv    sim.Timer
}

// New creates a VM with the given virtual IP on a physical host. Call
// Start to boot it onto the overlay.
func New(host *phys.Host, ip vip.IP, spec Spec, cfg brunet.Config) *VM {
	spec.fillDefaults()
	node := ipop.New(host, ip, cfg)
	v := &VM{
		spec:     spec,
		host:     host,
		node:     node,
		sim:      host.Sim(),
		hostLoad: 1,
	}
	v.stack = vip.NewStack(node, vip.StackConfig{})
	return v
}

// Spec returns the VM's performance description.
func (v *VM) Spec() Spec { return v.spec }

// Name returns the VM's name.
func (v *VM) Name() string { return v.spec.Name }

// IP returns the VM's virtual address.
func (v *VM) IP() vip.IP { return v.node.VIP() }

// Stack returns the guest's virtual IP stack; middleware binds here.
func (v *VM) Stack() *vip.Stack { return v.stack }

// Node returns the VM's IPOP endpoint.
func (v *VM) Node() *ipop.Node { return v.node }

// Host returns the physical host currently running the VM.
func (v *VM) Host() *phys.Host { return v.host }

// Running reports whether the VM is booted and not suspended.
func (v *VM) Running() bool { return v.running && !v.suspended }

// Start boots the VM and joins the overlay through the bootstrap URIs.
func (v *VM) Start(bootstrap []brunet.URI) error {
	if v.running {
		return fmt.Errorf("vm %s: already running", v.spec.Name)
	}
	v.boot = append([]brunet.URI(nil), bootstrap...)
	if err := v.node.Start(v.boot); err != nil {
		return fmt.Errorf("vm %s: %w", v.spec.Name, err)
	}
	v.running = true
	return nil
}

// Decommission removes the VM from the pool gracefully: guest services
// stop and the IPOP node leaves the overlay with goodbyes, so peers repair
// the ring immediately (a clean `qmgr` removal rather than a crash).
func (v *VM) Decommission() {
	if !v.running {
		return
	}
	v.pauseCPU()
	v.node.Leave()
	v.running = false
	v.queue = nil
	v.current = nil
}

// SetHostLoad sets the background-load multiplier of the physical host
// the guest shares (the knob turned in the Figure 7 experiment to justify
// migrating away). Values below 1 clamp to 1.
func (v *VM) SetHostLoad(f float64) {
	if f < 1 {
		f = 1
	}
	v.pauseCPU()
	v.hostLoad = f
	v.resumeCPU()
}

// rate converts baseline CPU-seconds to wall-clock seconds on this VM.
func (v *VM) rate() float64 {
	return v.spec.VirtOverhead * v.hostLoad / v.spec.CPUSpeed
}

// Execute queues a compute job of the given baseline CPU seconds; done
// fires when it completes. Jobs run FIFO on the VM's single core, stretch
// under host load, pause across suspension and resume after migration —
// the behaviour of the paper's PBS job 88.
func (v *VM) Execute(cpu sim.Duration, done func()) {
	t := &task{remaining: cpu, done: done}
	v.queue = append(v.queue, t)
	v.dispatch()
}

func (v *VM) dispatch() {
	if v.current != nil || len(v.queue) == 0 || !v.Running() {
		return
	}
	v.current = v.queue[0]
	v.queue = v.queue[1:]
	v.startCurrent()
}

func (v *VM) startCurrent() {
	t := v.current
	v.started = v.sim.Now()
	wall := sim.Duration(float64(t.remaining) * v.rate())
	v.compEv = v.sim.After(wall, func() {
		v.current = nil
		if t.done != nil {
			t.done()
		}
		v.dispatch()
	})
}

// pauseCPU freezes the in-flight job, banking its progress.
func (v *VM) pauseCPU() {
	if v.current == nil || !v.compEv.Active() {
		return
	}
	v.compEv.Cancel()
	elapsed := v.sim.Now().Sub(v.started)
	progress := sim.Duration(float64(elapsed) / v.rate())
	if progress > v.current.remaining {
		progress = v.current.remaining
	}
	v.current.remaining -= progress
}

func (v *VM) resumeCPU() {
	if v.current != nil && !v.compEv.Active() && v.Running() {
		v.startCurrent()
	}
	v.dispatch()
}

// MigrationConfig parameterizes a wide-area migration.
type MigrationConfig struct {
	// TransferBps is the effective WAN throughput for the image copy.
	// Zero means 2 MB/s, which moves the default image in ~6.5 minutes
	// — the origin of the paper's "hundreds of seconds" migration
	// latency and ~8 minute no-routability window.
	TransferBps float64
	// Graceful makes the IPOP shutdown a planned departure: instead of
	// killing the process (peers discover the death by ping timeout, the
	// paper's §V-C behaviour), the node leaves with handoff messages that
	// introduce its ring neighbors to each other, so the ring is whole
	// again seconds after the suspend instead of minutes.
	Graceful bool
}

// Migrate suspends the VM, transfers its image to dst, resumes it there
// and restarts IPOP (§V-C). done fires once the VM is running on dst;
// overlay routability returns shortly after as the node rejoins the ring.
func (v *VM) Migrate(dst *phys.Host, cfg MigrationConfig, done func()) error {
	if !v.running {
		return fmt.Errorf("vm %s: not running", v.spec.Name)
	}
	if v.suspended {
		return fmt.Errorf("vm %s: migration already in progress", v.spec.Name)
	}
	if cfg.TransferBps == 0 {
		cfg.TransferBps = 2 << 20
	}
	// Step 1: stop the user-level IPOP process. The paper kills it
	// outright and peers time the node out; with Graceful set the node
	// leaves with ring-handoff goodbyes first.
	if cfg.Graceful {
		v.node.Leave()
	} else {
		v.node.Stop()
	}
	// Step 2: suspend the guest; in-flight jobs freeze.
	v.suspended = true
	v.pauseCPU()

	// Steps 3 and 4, once the image has crossed: resume on dst, restart
	// IPOP.
	v.resumeAt(dst, sim.Duration(float64(v.spec.ImageBytes)/cfg.TransferBps*float64(sim.Second)), done)
	return nil
}

// resumeAt ends a migration once downtime has passed: the VM resumes on
// dst with its virtual network interface identity (tap0 / virtual IP)
// unchanged, IPOP restarts and rejoins autonomously, and done fires.
func (v *VM) resumeAt(dst *phys.Host, downtime sim.Duration, done func()) {
	v.sim.After(downtime, func() {
		v.host = dst
		if err := v.node.MoveToHost(dst); err != nil {
			panic(fmt.Sprintf("vm %s: move: %v", v.spec.Name, err))
		}
		v.suspended = false
		if err := v.node.Start(v.boot); err != nil {
			panic(fmt.Sprintf("vm %s: ipop restart: %v", v.spec.Name, err))
		}
		v.resumeCPU()
		if done != nil {
			done()
		}
	})
}

// maxPreCopyRounds bounds live migration's iterative pre-copy before the
// final stop-and-copy.
const maxPreCopyRounds = 8

// dirtyRateBps is the guest's memory dirtying rate during live pre-copy
// migration, 256 KB/s.
const dirtyRateBps = 256 << 10

// MigrateLive performs iterative pre-copy live migration — the technique
// the paper's §II/§VI anticipate from Xen-style monitors ("growing
// support for checkpointing and live migration of running VMs"). Memory
// is copied in rounds while the guest keeps running (IPOP stays up and
// the node stays routable); only the final stop-and-copy of the residual
// dirty set incurs downtime, typically seconds instead of the ~8 minutes
// of suspend-transfer-resume migration.
func (v *VM) MigrateLive(dst *phys.Host, cfg MigrationConfig, done func()) error {
	if !v.running {
		return fmt.Errorf("vm %s: not running", v.spec.Name)
	}
	if v.suspended {
		return fmt.Errorf("vm %s: migration already in progress", v.spec.Name)
	}
	if cfg.TransferBps == 0 {
		cfg.TransferBps = 2 << 20
	}
	if dirtyRateBps >= cfg.TransferBps {
		return fmt.Errorf("vm %s: dirty rate %d B/s >= transfer rate %.0f B/s; pre-copy cannot converge",
			v.spec.Name, dirtyRateBps, cfg.TransferBps)
	}

	// Iterative pre-copy: each round ships the previous round's dirty
	// set while the guest dirties more.
	remaining := float64(v.spec.ImageBytes)
	round := 0
	var precopy func()
	precopy = func() {
		roundTime := remaining / cfg.TransferBps
		dirtied := roundTime * dirtyRateBps
		round++
		v.sim.After(sim.Duration(roundTime*float64(sim.Second)), func() {
			remaining = dirtied
			// Stop when the residual fits in a short downtime or
			// the round budget is spent.
			if round >= maxPreCopyRounds || remaining <= cfg.TransferBps/2 {
				v.liveStopAndCopy(dst, cfg, remaining, done)
				return
			}
			precopy()
		})
	}
	precopy()
	return nil
}

// liveStopAndCopy is the final phase: kill IPOP, suspend, ship the
// residual dirty set, resume at the destination, restart IPOP.
func (v *VM) liveStopAndCopy(dst *phys.Host, cfg MigrationConfig, residual float64, done func()) {
	if !v.running {
		return
	}
	v.node.Stop()
	v.suspended = true
	v.pauseCPU()
	v.resumeAt(dst, sim.Duration(residual/cfg.TransferBps*float64(sim.Second)), done)
}

// String renders a diagnostic summary.
func (v *VM) String() string {
	return fmt.Sprintf("vm{%s ip=%s host=%s speed=%.2f}", v.spec.Name, v.IP(), v.host.Name, v.spec.CPUSpeed)
}
