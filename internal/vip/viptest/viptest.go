// Package viptest provides in-memory carriers for testing code built on
// the virtual IP stack without standing up a full overlay: a Mesh connects
// any number of stacks with configurable latency, loss and per-endpoint
// up/down switches.
package viptest

import (
	"math/rand"

	"wow/internal/sim"
	"wow/internal/vip"
)

// Mesh is an any-to-any fabric of carriers.
type Mesh struct {
	Sim     *sim.Simulator
	Latency sim.Duration
	Loss    float64

	rng      *rand.Rand
	carriers map[vip.IP]*Carrier
}

// NewMesh creates a mesh with the given one-way latency.
func NewMesh(s *sim.Simulator, latency sim.Duration) *Mesh {
	return &Mesh{
		Sim:      s,
		Latency:  latency,
		rng:      rand.New(rand.NewSource(1)),
		carriers: make(map[vip.IP]*Carrier),
	}
}

// Carrier is one mesh endpoint implementing vip.Carrier.
type Carrier struct {
	mesh *Mesh
	ip   vip.IP
	recv func(*vip.Packet)
	up   bool
	// deliverFn is deliver bound once, so SendIP schedules an arrival
	// without allocating a closure or a method value per packet.
	deliverFn func(any)
}

// Add creates a carrier for ip.
func (m *Mesh) Add(ip vip.IP) *Carrier {
	c := &Carrier{mesh: m, ip: ip, up: true}
	c.deliverFn = c.deliver
	m.carriers[ip] = c
	return c
}

// AddStack creates a carrier and a stack over it.
func (m *Mesh) AddStack(ip vip.IP, cfg vip.StackConfig) *vip.Stack {
	return vip.NewStack(m.Add(ip), cfg)
}

// SetUp switches an endpoint's connectivity (both directions).
func (m *Mesh) SetUp(ip vip.IP, up bool) {
	if c, ok := m.carriers[ip]; ok {
		c.up = up
	}
}

// LocalVIP implements vip.Carrier.
func (c *Carrier) LocalVIP() vip.IP { return c.ip }

// Clock implements vip.Carrier.
func (c *Carrier) Clock() *sim.Simulator { return c.mesh.Sim }

// SetReceiver implements vip.Carrier.
func (c *Carrier) SetReceiver(f func(*vip.Packet)) { c.recv = f }

// SendIP implements vip.Carrier.
func (c *Carrier) SendIP(p *vip.Packet) {
	if !c.up {
		return
	}
	dst, ok := c.mesh.carriers[p.Dst]
	if !ok || !dst.up {
		return
	}
	if c.mesh.Loss > 0 && c.mesh.rng.Float64() < c.mesh.Loss {
		return
	}
	c.mesh.Sim.AtArg(c.mesh.Sim.Now().Add(c.mesh.Latency), dst.deliverFn, p)
}

// deliver is the arrival of a packet at this endpoint.
func (c *Carrier) deliver(p any) {
	if c.recv != nil && c.up {
		c.recv(p.(*vip.Packet))
	}
}

var _ vip.Carrier = (*Carrier)(nil)

// Machine is a fake compute node satisfying the middleware Machine
// interfaces (pbs.Machine, pvm.Machine): jobs run at Speed× baseline on a
// single core.
type Machine struct {
	MachineName string
	S           *vip.Stack
	Speed       float64

	busyUntil sim.Time
}

// NewMachine creates a fake machine with a fresh mesh stack.
func NewMachine(m *Mesh, name string, ip vip.IP, speed float64) *Machine {
	return &Machine{MachineName: name, S: m.AddStack(ip, vip.StackConfig{}), Speed: speed}
}

// Name implements the middleware Machine interfaces.
func (f *Machine) Name() string { return f.MachineName }

// Stack implements the middleware Machine interfaces.
func (f *Machine) Stack() *vip.Stack { return f.S }

// Execute runs cpu baseline seconds at Speed, serialized on one core.
func (f *Machine) Execute(cpu sim.Duration, done func()) {
	s := f.S.Sim()
	wall := sim.Duration(float64(cpu) / f.Speed)
	start := s.Now()
	if f.busyUntil > start {
		start = f.busyUntil
	}
	end := start.Add(wall)
	f.busyUntil = end
	s.At(end, done)
}
