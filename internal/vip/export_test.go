package vip

import (
	"reflect"

	"wow/internal/sim"
)

// GuardsRelaxed tells the allocation guards of the external test package to
// log instead of assert: the race detector and the packetdebug pool both
// allocate where the production build does not.
const GuardsRelaxed = raceEnabled || poolDebug

// poolDebug reports whether the packetdebug free list is compiled in.
const poolDebug = sim.PoolDebug

// Config is the stack's transport constants.
func (s *Stack) Config() StackConfig { return s.cfg }

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// PoolLen is the length of the packet free list s releases into.
func (s *Stack) PoolLen() int { return s.pool.pkts.Len() }

// RTOMark identifies one arming of a connection's retransmission timer: the
// pooled simulator event the timer sits on and the event's generation then.
type RTOMark struct {
	ev  uintptr
	gen uint64
}

// RTOMark reads the timer's current arming. The fields of sim.Timer are not
// exported; a test may look.
func (c *Conn) RTOMark() RTOMark {
	t := reflect.ValueOf(c.rtoTimer)
	return RTOMark{t.FieldByName("ev").Pointer(), t.FieldByName("gen").Uint()}
}

// RTOArmsSince counts how often the retransmission timer was armed since m
// was read, without the connection counting for it: armRTO cancels the timer
// and schedules it again in one go, the simulator hands a cancelled event
// straight to the next schedule and bumps the event's generation whenever it
// is retired, so as long as the timer sits on the event it sat on at m, the
// generations in between are its re-armings. ok is false when it has moved to
// another event (it fired, or was left cancelled while others were scheduled).
func (c *Conn) RTOArmsSince(m RTOMark) (arms int, ok bool) {
	now := c.RTOMark()
	return int(now.gen - m.gen), now.ev == m.ev
}

// OOLen is the number of out-of-order segments the connection has parked.
func (c *Conn) OOLen() int { return len(c.oo) }

// gcCopy returns a copy of p that belongs to the garbage collector: no pool
// will ever take it back, and it shares nothing with p.
func (p *Packet) gcCopy() *Packet {
	q := *p
	q.Pooled = sim.Pooled{}
	q.tcp.Ends = append([]chunkEnd(nil), p.tcp.Ends...)
	return &q
}
