// Package pvm models the PVM master–worker runtime used by
// fastDNAml-PVM (§V-D2): "the master maintains a task pool and dispatches
// tasks to workers dynamically", so faster nodes naturally pull more
// tasks, and each computation round synchronizes before the next begins —
// the structure that limits parallel speedup on a heterogeneous WOW.
package pvm

import (
	"fmt"

	"wow/internal/middleware/rpc"
	"wow/internal/sim"
	"wow/internal/vip"
)

// Machine is the compute node a worker daemon drives; internal/vm.VM satisfies
// it.
type Machine interface {
	Name() string
	Stack() *vip.Stack
	Execute(cpu sim.Duration, done func())
}

// Port is the master daemon port; WorkerPort the per-worker daemon port.
const (
	Port       = 4096
	WorkerPort = 4097
)

// Task is one unit of parallel work.
type Task struct {
	ID    int
	Round int
	// CPU is baseline CPU time.
	CPU sim.Duration
	// SendBytes/RecvBytes are task-dispatch and result payload sizes.
	SendBytes, RecvBytes int
}

// wire messages.
type enrollReq struct{ Name string }
type enrollRsp struct{ OK bool }
type taskReq struct{ T Task }
type taskRsp struct{ OK bool }
type bcastReq struct{ Round int }
type bcastRsp struct{ OK bool }

type workerRef struct {
	name  string
	cli   *rpc.Client
	busy  bool
	tasks int
}

// Master coordinates rounds of tasks across enrolled workers.
type Master struct {
	sim     *sim.Simulator
	workers []*workerRef

	rounds    [][]Task
	round     int
	pool      []Task
	inflight  int
	started   sim.Time
	onDone    func(elapsed sim.Duration)
	running   bool
	broadcast int
}

// NewMaster starts the PVM master daemon on a stack (typically the head
// VM or the node where the user launched fastDNAml).
func NewMaster(stack *vip.Stack) (*Master, error) {
	m := &Master{sim: stack.Sim()}
	_, err := rpc.Serve(stack, Port, func(client vip.IP, body any, reply func(any, int)) {
		switch req := body.(type) {
		case enrollReq:
			w := &workerRef{name: req.Name, cli: rpc.Dial(stack, client, WorkerPort)}
			m.workers = append(m.workers, w)
			reply(enrollRsp{OK: true}, 64)
			if m.running {
				m.pump()
			}
		default:
			reply(nil, 16)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("pvm: %w", err)
	}
	return m, nil
}

// SetRoundBroadcast makes the master ship bytes of shared state (the
// current best tree, in fastDNAml's case) to every worker at the start of
// each round and wait for acknowledgments before dispatching tasks — the
// synchronization §V-D2 identifies as the scaling limit: the application
// "needs to synchronize many times during its execution, to select the
// best tree at each round of tree optimization".
func (m *Master) SetRoundBroadcast(bytes int) { m.broadcast = bytes }

// Run executes the rounds in order; within a round tasks are dispatched
// dynamically to idle workers, and the next round starts only after every
// task of the current round has returned (the per-round synchronization
// fastDNAml needs to "select the best tree at each round of tree
// optimization").
func (m *Master) Run(rounds [][]Task, onDone func(elapsed sim.Duration)) error {
	if m.running {
		return fmt.Errorf("pvm: master already running")
	}
	m.rounds = rounds
	m.round = 0
	m.onDone = onDone
	m.running = true
	m.started = m.sim.Now()
	m.startRound()
	return nil
}

func (m *Master) startRound() {
	for m.round < len(m.rounds) && len(m.rounds[m.round]) == 0 {
		m.round++
	}
	if m.round >= len(m.rounds) {
		m.running = false
		if m.onDone != nil {
			m.onDone(m.sim.Now().Sub(m.started))
		}
		return
	}
	m.pool = append([]Task(nil), m.rounds[m.round]...)
	if m.broadcast > 0 && len(m.workers) > 0 {
		// Ship the round's shared state to every worker and wait for
		// all acknowledgments before dispatching.
		waiting := len(m.workers)
		for _, w := range m.workers {
			w := w
			w.cli.Call(bcastReq{Round: m.round}, m.broadcast, func(resp any) {
				waiting--
				if waiting == 0 {
					m.pump()
				}
			})
		}
		return
	}
	m.pump()
}

// pump dispatches pool tasks to idle workers.
func (m *Master) pump() {
	if !m.running {
		return
	}
	for len(m.pool) > 0 {
		var idle *workerRef
		for _, w := range m.workers {
			if !w.busy {
				idle = w
				break
			}
		}
		if idle == nil {
			return
		}
		t := m.pool[0]
		m.pool = m.pool[1:]
		idle.busy = true
		idle.tasks++
		m.inflight++
		w := idle
		w.cli.Call(taskReq{T: t}, t.SendBytes, func(resp any) {
			w.busy = false
			m.inflight--
			if _, ok := resp.(taskRsp); !ok {
				// Transport failure: requeue the task.
				m.pool = append(m.pool, t)
				m.pump()
				return
			}
			if m.inflight == 0 && len(m.pool) == 0 {
				// Round barrier reached.
				m.round++
				m.startRound()
				return
			}
			m.pump()
		})
	}
}

// NewWorker starts the worker daemon, which executes tasks on the VM, and
// enrolls with the master.
func NewWorker(machine Machine, master vip.IP) error {
	_, err := rpc.Serve(machine.Stack(), WorkerPort, func(client vip.IP, body any, reply func(any, int)) {
		switch req := body.(type) {
		case taskReq:
			machine.Execute(req.T.CPU, func() {
				reply(taskRsp{OK: true}, req.T.RecvBytes)
			})
		case bcastReq:
			reply(bcastRsp{OK: true}, 64)
		default:
			reply(nil, 16)
		}
	})
	if err != nil {
		return fmt.Errorf("pvm worker: %w", err)
	}
	enroll := rpc.Dial(machine.Stack(), master, Port)
	enroll.Call(enrollReq{Name: machine.Name()}, 256, func(any) {})
	return nil
}
