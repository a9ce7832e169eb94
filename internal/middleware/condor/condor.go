// Package condor models the Condor high-throughput system the paper's
// introduction singles out as the canonical WOW payload: "a base WOW VM
// image can be installed with Condor binaries and be quickly replicated
// across multiple sites to host a homogeneously configured distributed
// Condor pool" (§I).
//
// Unlike the push-model PBS scheduler (internal/middleware/pbs), Condor is
// matchmaking-based: startd daemons on every machine advertise ClassAds to
// a central manager over UDP; a schedd holds the job queue; and the
// negotiator periodically matches idle jobs against unclaimed machines by
// requirements and rank. All traffic rides the WOW virtual network.
package condor

import (
	"fmt"
	"sort"

	"wow/internal/middleware/rpc"
	"wow/internal/sim"
	"wow/internal/vip"
)

// Ports: the central manager's collector/negotiator and per-machine
// startds.
const (
	CollectorPort = 9618
	StartdPort    = 9619
)

// Machine is the compute node a startd drives; internal/vm.VM satisfies
// it (same contract as pbs.Machine).
type Machine interface {
	Name() string
	Stack() *vip.Stack
	Execute(cpu sim.Duration, done func())
}

// MachineAd is a startd's ClassAd: what the machine offers.
type MachineAd struct {
	Name string
	IP   vip.IP
	// Speed is the advertised relative CPU speed.
	Speed float64
	// State is "unclaimed" or "claimed".
	State string
}

// JobAd describes one queued job: what it requires and how it ranks
// machines.
type JobAd struct {
	ID int
	// CPU is baseline CPU time.
	CPU sim.Duration
	// MinSpeed is the job's Requirements expression: only machines at
	// least this fast match.
	MinSpeed float64
}

// JobRecord tracks a job through the pool.
type JobRecord struct {
	Ad        JobAd
	Submitted sim.Time
	Matched   sim.Time
	Finished  sim.Time
	Machine   string
	OK        bool
}

// wire messages.
type adUpdate struct{ Ad MachineAd }
type claimReq struct{ Job JobAd }
type claimRsp struct{ OK bool }

// CentralManager is the collector + negotiator.
type CentralManager struct {
	sim *sim.Simulator
	// AdTTL expires machine ads not refreshed (crashed startds).
	AdTTL sim.Duration

	machines map[string]*machineEntry
	schedd   *Schedd
	// negotiator is the negotiation cycle's ticker, stopped by Close.
	negotiator *sim.Ticker
}

type machineEntry struct {
	ad      MachineAd
	updated sim.Time
	claimed bool
}

// NewCentralManager starts the collector on the stack and begins
// negotiation cycles at the given interval (Condor's default is measured
// in minutes; short intervals trade matchmaking latency for overhead).
func NewCentralManager(stack *vip.Stack, cycle sim.Duration) (*CentralManager, error) {
	if cycle == 0 {
		cycle = 60 * sim.Second
	}
	cm := &CentralManager{
		sim:      stack.Sim(),
		AdTTL:    5 * sim.Minute,
		machines: make(map[string]*machineEntry),
	}
	// Startd ads arrive as UDP datagrams, exactly like Condor's
	// collector updates.
	if err := stack.ListenUDP(CollectorPort, func(src vip.IP, srcPort uint16, size int, msg any) {
		up, ok := msg.(adUpdate)
		if !ok {
			return
		}
		e, exists := cm.machines[up.Ad.Name]
		if !exists {
			e = &machineEntry{}
			cm.machines[up.Ad.Name] = e
		}
		claimed := up.Ad.State == "claimed"
		e.ad = up.Ad
		e.updated = cm.sim.Now()
		e.claimed = claimed
	}); err != nil {
		return nil, fmt.Errorf("condor: %w", err)
	}
	cm.negotiator = cm.sim.Tick(cycle, cycle/10, cm.negotiate)
	return cm, nil
}

// Close stops the negotiation cycle: no match is made after it.
func (cm *CentralManager) Close() { cm.negotiator.Stop() }

// Machines reports live (unexpired) machine ads.
func (cm *CentralManager) Machines() []MachineAd {
	now := cm.sim.Now()
	var out []MachineAd
	for _, e := range cm.machines {
		if now.Sub(e.updated) <= cm.AdTTL {
			out = append(out, e.ad)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AttachSchedd registers the pool's job queue with the negotiator. (One
// schedd, as in the paper's single-submit-node deployments.)
func (cm *CentralManager) AttachSchedd(s *Schedd) { cm.schedd = s }

// negotiate is one negotiation cycle: match idle jobs to unclaimed
// machines, best (fastest) machine first.
func (cm *CentralManager) negotiate() {
	if cm.schedd == nil {
		return
	}
	now := cm.sim.Now()
	var avail []*machineEntry
	for _, e := range cm.machines {
		if !e.claimed && now.Sub(e.updated) <= cm.AdTTL {
			avail = append(avail, e)
		}
	}
	// Rank: fastest machines first (the standard Rank = KFlops idiom).
	// avail comes out of a map, and most pools are machines of one speed:
	// names break the tie, or map order would pick the match.
	sort.Slice(avail, func(i, j int) bool {
		if avail[i].ad.Speed != avail[j].ad.Speed {
			return avail[i].ad.Speed > avail[j].ad.Speed
		}
		return avail[i].ad.Name < avail[j].ad.Name
	})

	for _, job := range cm.schedd.idleJobs() {
		var pick *machineEntry
		for _, e := range avail {
			if e.claimed || e.ad.Speed < job.Ad.MinSpeed {
				continue
			}
			pick = e
			break
		}
		if pick == nil {
			continue
		}
		pick.claimed = true // claimed until the next ad refresh says otherwise
		cm.schedd.activate(job, pick.ad)
	}
}

// Schedd holds the job queue and activates matched claims.
type Schedd struct {
	stack   *vip.Stack
	sim     *sim.Simulator
	records []*JobRecord
	idle    []*JobRecord
	onDone  func(*JobRecord)
	startds map[string]*rpc.Client
}

// NewSchedd creates the job queue on a submit node's stack.
func NewSchedd(stack *vip.Stack) *Schedd {
	return &Schedd{stack: stack, sim: stack.Sim(), startds: make(map[string]*rpc.Client)}
}

// Submit queues one job (condor_submit).
func (s *Schedd) Submit(ad JobAd) *JobRecord {
	rec := &JobRecord{Ad: ad, Submitted: s.sim.Now()}
	s.records = append(s.records, rec)
	s.idle = append(s.idle, rec)
	return rec
}

// OnJobDone registers a completion callback.
func (s *Schedd) OnJobDone(f func(*JobRecord)) { s.onDone = f }

func (s *Schedd) idleJobs() []*JobRecord { return append([]*JobRecord(nil), s.idle...) }

// activate sends a matched job to the machine's startd (claim +
// activation collapsed into one RPC).
func (s *Schedd) activate(rec *JobRecord, ad MachineAd) {
	// Remove from the idle queue.
	for i, r := range s.idle {
		if r == rec {
			s.idle = append(s.idle[:i], s.idle[i+1:]...)
			break
		}
	}
	rec.Matched = s.sim.Now()
	rec.Machine = ad.Name
	cli, ok := s.startds[ad.Name]
	if !ok {
		cli = rpc.Dial(s.stack, ad.IP, StartdPort)
		s.startds[ad.Name] = cli
	}
	cli.Call(claimReq{Job: rec.Ad}, 4096, func(resp any) {
		rsp, ok := resp.(claimRsp)
		rec.Finished = s.sim.Now()
		rec.OK = ok && rsp.OK
		if s.onDone != nil {
			s.onDone(rec)
		}
	})
}

// Startd advertises a machine and executes claims.
type Startd struct {
	machine Machine
	speed   float64
	cm      vip.IP
	busy    bool
	// adTicker re-sends the ClassAd every adInterval until Close.
	adTicker *sim.Ticker
}

// NewStartd runs a startd on the machine, advertising the given relative
// speed to the central manager every adInterval.
func NewStartd(machine Machine, speed float64, cm vip.IP, adInterval sim.Duration) (*Startd, error) {
	if adInterval == 0 {
		adInterval = 60 * sim.Second
	}
	sd := &Startd{machine: machine, speed: speed, cm: cm}
	_, err := rpc.Serve(machine.Stack(), StartdPort, func(client vip.IP, body any, reply func(any, int)) {
		req, ok := body.(claimReq)
		if !ok {
			reply(nil, 16)
			return
		}
		sd.busy = true
		sd.advertise() // propagate the claimed state promptly
		machine.Execute(req.Job.CPU, func() {
			sd.busy = false
			reply(claimRsp{OK: true}, 1024)
			sd.advertise()
		})
	})
	if err != nil {
		return nil, fmt.Errorf("condor startd: %w", err)
	}
	sd.advertise()
	sd.adTicker = machine.Stack().Sim().Tick(adInterval, adInterval/10, sd.advertise)
	return sd, nil
}

// Close stops the periodic advertisement: the collector hears no ad from
// the machine after it and lets the last one expire.
func (sd *Startd) Close() { sd.adTicker.Stop() }

// advertise pushes the machine's current ClassAd to the collector (UDP,
// fire and forget — lost ads are refreshed next interval, as in Condor).
func (sd *Startd) advertise() {
	state := "unclaimed"
	if sd.busy {
		state = "claimed"
	}
	ad := MachineAd{
		Name:  sd.machine.Name(),
		IP:    sd.machine.Stack().IP(),
		Speed: sd.speed,
		State: state,
	}
	sd.machine.Stack().SendUDP(sd.cm, StartdPort, CollectorPort, 1024, adUpdate{Ad: ad})
}
