//go:build !packetdebug

package vip

// The production side of the shard pool (shardPool in stack.go); -tags
// packetdebug swaps in pool_debug.go, which reuses nothing and panics on
// pool misuse.

// poolDebug reports whether the packetdebug pool is compiled in; the
// allocation guards and pool-length checks skip their assertions under it.
const poolDebug = false

// poolMark is the debug pool's per-packet state; empty here.
type poolMark struct{}

// acquire takes a blank packet from the shard's list, or allocates one.
func (s *Stack) acquire() *Packet {
	p := s.pool.pkts
	if p == nil {
		return &Packet{pooled: true}
	}
	s.pool.pkts = p.nextFree
	p.nextFree = nil
	p.pooled = true
	return p
}

// release puts a pooled packet on the shard's list, blank but for the
// backing array of its Ends, so the list pins no message and the next
// sender finds nothing of this one in it; where names the site for the
// debug pool. A packet built outside the stack passes through untouched.
func (s *Stack) release(p *Packet, where string) {
	if !p.pooled {
		return
	}
	ends := p.tcp.Ends
	clear(ends)
	*p = Packet{nextFree: s.pool.pkts}
	p.tcp.Ends = ends[:0]
	s.pool.pkts = p
}

// live is the debug pool's checkpoint for a packet entering the stack.
func (p *Packet) live(where string) {}
