// Package pbs models the OpenPBS batch system of §V-D1: a head node
// (pbs_server + scheduler) that queues submitted jobs and dispatches them
// to MOM daemons on worker VMs; workers stage input from the NFS-mounted
// home directory, execute the job on the guest CPU, write output back to
// NFS and report completion.
//
// All control traffic (dispatch, completion) and data traffic (NFS blocks)
// rides the virtual network, so PBS throughput inherits the overlay's path
// quality — the mechanism behind the paper's 53 vs 22 jobs/minute result.
package pbs

import (
	"fmt"

	"wow/internal/middleware/nfs"
	"wow/internal/middleware/rpc"
	"wow/internal/sim"
	"wow/internal/vip"
)

// Machine is the compute node a MOM drives: a named guest with a virtual
// IP stack and a single-core CPU executing baseline-seconds of work.
// internal/vm.VM satisfies it.
type Machine interface {
	Name() string
	Stack() *vip.Stack
	Execute(cpu sim.Duration, done func())
}

// Port is the pbs_server port; MOMPort the per-worker daemon port.
const (
	Port    = 15001
	MOMPort = 15002
)

// JobSpec describes one batch job.
type JobSpec struct {
	ID int
	// CPU is baseline CPU time (node002-seconds).
	CPU sim.Duration
	// InputPath is read in full from NFS before computing.
	InputPath string
	// OutputPath receives OutputBytes on NFS after computing.
	OutputPath  string
	OutputBytes int64
}

// JobRecord tracks one job through the system.
type JobRecord struct {
	Spec      JobSpec
	Submitted sim.Time
	Started   sim.Time // dispatched to a worker
	Finished  sim.Time
	Worker    string
	OK        bool
}

// WallSeconds is the job's execution wall time (dispatch to completion),
// the quantity binned in Figure 8.
func (r *JobRecord) WallSeconds() float64 { return r.Finished.Sub(r.Started).Seconds() }

// wire messages.
type registerReq struct{ Name string }
type registerRsp struct{ OK bool }
type runReq struct{ Spec JobSpec }
type runRsp struct{ OK bool }

type workerRef struct {
	name string
	cli  *rpc.Client
	busy bool
	jobs int
}

// Head is the PBS head node service.
type Head struct {
	sim     *sim.Simulator
	workers []*workerRef
	queue   []*JobRecord
	records []*JobRecord
	done    int
	onDone  func(*JobRecord)
}

// NewHead starts the pbs_server on the head VM's stack.
func NewHead(stack *vip.Stack) (*Head, error) {
	h := &Head{sim: stack.Sim()}
	_, err := rpc.Serve(stack, Port, func(client vip.IP, body any, reply func(any, int)) {
		switch m := body.(type) {
		case registerReq:
			w := &workerRef{name: m.Name, cli: rpc.Dial(stack, client, MOMPort)}
			h.workers = append(h.workers, w)
			reply(registerRsp{OK: true}, 64)
			h.dispatch()
		default:
			reply(nil, 16)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("pbs: %w", err)
	}
	return h, nil
}

// OnJobDone registers a per-completion callback.
func (h *Head) OnJobDone(f func(*JobRecord)) { h.onDone = f }

// Submit queues one job (qsub).
func (h *Head) Submit(spec JobSpec) *JobRecord {
	rec := &JobRecord{Spec: spec, Submitted: h.sim.Now()}
	h.records = append(h.records, rec)
	h.queue = append(h.queue, rec)
	h.dispatch()
	return rec
}

// dispatch assigns queued jobs to free workers (FIFO job order, first
// free worker — OpenPBS's default behaviour for a homogeneous queue).
func (h *Head) dispatch() {
	for len(h.queue) > 0 {
		var free *workerRef
		for _, w := range h.workers {
			if !w.busy {
				free = w
				break
			}
		}
		if free == nil {
			return
		}
		rec := h.queue[0]
		h.queue = h.queue[1:]
		free.busy = true
		free.jobs++
		rec.Started = h.sim.Now()
		rec.Worker = free.name
		w := free
		// The dispatch RPC carries the job script (~4 KB).
		w.cli.Call(runReq{Spec: rec.Spec}, 4096, func(resp any) {
			rsp, ok := resp.(runRsp)
			rec.Finished = h.sim.Now()
			rec.OK = ok && rsp.OK
			w.busy = false
			h.done++
			if h.onDone != nil {
				h.onDone(rec)
			}
			h.dispatch()
		})
	}
}

// MOM is the per-worker execution daemon.
type MOM struct {
	vm   Machine
	nfsC *nfs.Client
}

// NewMOM starts a MOM on the worker VM, mounts NFS from the head and
// registers with the pbs_server.
func NewMOM(machine Machine, head vip.IP) (*MOM, error) {
	m := &MOM{vm: machine, nfsC: nfs.Mount(machine.Stack(), head)}
	_, err := rpc.Serve(machine.Stack(), MOMPort, m.handle)
	if err != nil {
		return nil, fmt.Errorf("pbs mom: %w", err)
	}
	reg := rpc.Dial(machine.Stack(), head, Port)
	reg.Call(registerReq{Name: machine.Name()}, 256, func(any) {})
	return m, nil
}

// handle runs one job: stage in, compute, stage out, report.
func (m *MOM) handle(client vip.IP, body any, reply func(any, int)) {
	req, ok := body.(runReq)
	if !ok {
		reply(nil, 16)
		return
	}
	finish := func(ok bool) { reply(runRsp{OK: ok}, 1024) }
	stageOut := func() {
		if req.Spec.OutputBytes <= 0 {
			finish(true)
			return
		}
		m.nfsC.WriteFile(req.Spec.OutputPath, req.Spec.OutputBytes, func(ok bool) { finish(ok) })
	}
	compute := func() {
		m.vm.Execute(req.Spec.CPU, stageOut)
	}
	if req.Spec.InputPath != "" {
		m.nfsC.ReadFile(req.Spec.InputPath, func(ok bool, _ int64) {
			if !ok {
				finish(false)
				return
			}
			compute()
		})
	} else {
		compute()
	}
}
