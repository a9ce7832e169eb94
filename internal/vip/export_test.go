package vip

// GuardsRelaxed tells the allocation guards of the external test package to
// log instead of assert: the race detector and the packetdebug pool both
// allocate where the production build does not.
const GuardsRelaxed = raceEnabled || poolDebug

// PoolLen is the length of the packet free list s releases into.
func (s *Stack) PoolLen() int {
	l := 0
	for p := s.pool.pkts; p != nil; p = p.nextFree {
		l++
	}
	return l
}

// RTOArms reports how many times the connection scheduled its
// retransmission timer; every one of them cancelled the timer first.
func (c *Conn) RTOArms() int { return c.rtoArms }

// OOLen is the number of out-of-order segments the connection has parked.
func (c *Conn) OOLen() int { return len(c.oo) }

// gcCopy returns a copy of p that belongs to the garbage collector: no pool
// will ever take it back, and it shares nothing with p.
func (p *Packet) gcCopy() *Packet {
	q := *p
	q.pooled, q.nextFree = false, nil
	q.tcp.Ends = append([]chunkEnd(nil), p.tcp.Ends...)
	return &q
}
