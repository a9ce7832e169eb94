//go:build packetdebug

package vip

import "fmt"

// Debug shard pool, in the manner of internal/phys/pool_debug.go: keeping a
// pooled *Packet past the handler it was delivered to — anywhere but in
// Conn.oo — is a bug: the pool hands it to the next sender. Here no packet is
// reused: a release poisons it and remembers the site, a second release
// panics naming both sites, and a poisoned packet entering the stack (send,
// receive, the drain of Conn.oo) panics there. A stack also checks that its
// carrier's clock is still the Simulator it was built on: a stack whose
// carrier has moved to a host of another shard would run on that shard's
// goroutine and share this shard's list with it. Which goroutine actually
// runs is the race detector's to say; CI runs this build under -race.

const poolDebug = true

// poolMark records where a pooled packet was released; empty while live.
type poolMark struct {
	released string
}

// checkShard panics when the stack is driven by another Simulator than the
// one whose pool it holds.
func (s *Stack) checkShard(where string) {
	if s.carrier.Clock() != s.sim {
		panic("vip: " + where + " on a stack whose carrier runs on another shard than its pool")
	}
}

func (s *Stack) acquire() *Packet {
	s.checkShard("acquire")
	return &Packet{pooled: true}
}

func (s *Stack) release(p *Packet, where string) {
	if p.mark.released != "" {
		panic(fmt.Sprintf("vip: double release of packet in %s (first released in %s)", where, p.mark.released))
	}
	if !p.pooled {
		return
	}
	s.checkShard("release in " + where)
	*p = Packet{Size: -1, Proto: 0xff, mark: poolMark{released: where}}
	p.tcp.Ends = []chunkEnd{{End: -1, Size: -1, Msg: "vip: use of released packet"}}
}

func (p *Packet) live(where string) {
	if p.mark.released != "" {
		panic(fmt.Sprintf("vip: use of released packet in %s (released in %s)", where, p.mark.released))
	}
}
