//go:build packetdebug

package sim

import "fmt"

// Debug free list: keeping a pooled object past the handler it was
// delivered to is a bug — the list hands it to the next sender. Here nothing
// is reused: Put overwrites the object with the list's poison value and
// remembers the site, a second Put panics naming both sites, and a released
// object entering a handler (Pooled.Live) or crossing shards (HandOff)
// panics there. Every object also carries the shard that holds it — stamped
// by Get, moved by HandOff when a carrier takes it to another shard — and a
// Put on another shard's list, or a Live on another shard, panics naming both
// shards: the single-owner rule that lets the lists go without locks. What
// no stamp shows is two goroutines on one list, or an object touched where
// nothing checks it; those are the race detector's to report, and CI runs
// this build under -race.

const PoolDebug = true

// poolMark records what kind of object this is, the shard holding it and
// where it was released; released is empty while the object is live.
type poolMark struct {
	what     string
	released string
	owner    *Simulator
}

// FreeList is the debug twin of the list in freelist.go: it lists nothing.
type FreeList[T any, P Poolable[T]] struct {
	sim    *Simulator
	what   string
	poison T
}

// NewFreeList returns the list of the shard s drives, of objects called what
// in its panics; poison is what Put overwrites a released object with.
func NewFreeList[T any, P Poolable[T]](s *Simulator, what string, poison T) FreeList[T, P] {
	return FreeList[T, P]{sim: s, what: what, poison: poison}
}

// Get allocates, stamped with the list's shard: a released object keeps the
// poison for whoever still holds it.
func (l *FreeList[T, P]) Get() P {
	var p P = new(T)
	*p.pooled() = Pooled{mark: poolMark{what: l.what, owner: l.sim}, listable: true}
	return p
}

// Put poisons an object Get handed out and the list's shard holds, and
// remembers where; a second Put of it, or a Put on another shard's list,
// panics. Anything else it leaves alone, as the production list does.
func (l *FreeList[T, P]) Put(p P, where string) bool {
	h := p.pooled()
	if h.mark.released != "" {
		panic(fmt.Sprintf("sim: double release of %s in %s (first released in %s)", h.mark.what, where, h.mark.released))
	}
	if !h.listable {
		return false
	}
	if h.mark.owner != l.sim {
		panic(fmt.Sprintf("sim: cross-shard release of %s in %s: owned by shard %d, released on shard %d",
			h.mark.what, where, h.mark.owner.shard, l.sim.shard))
	}
	*p = l.poison
	*h = Pooled{mark: poolMark{what: l.what, released: where}}
	return true
}

// Len is always zero: nothing is listed.
func (l *FreeList[T, P]) Len() int { return 0 }

// Live panics when the object has been released, or when it is a list's and
// another shard than s's holds it. What a stream has carried (Unpool) is no
// list's and keeps no stamp: HandOff leaves it alone.
func (h *Pooled) Live(s *Simulator, where string) {
	if h.mark.released != "" {
		panic(fmt.Sprintf("sim: use of released %s in %s (released in %s)", h.mark.what, where, h.mark.released))
	}
	if h.listable && h.mark.owner != s {
		panic(fmt.Sprintf("sim: %s owned by shard %d touched by shard %d in %s", h.mark.what, h.mark.owner.shard, s.shard, where))
	}
}

// HandOff stamps x, and every pooled object down the chain of what x
// carries, with the shard to drives; a released object on the way panics.
func HandOff(x any, to *Simulator) {
	for x != nil {
		if p, ok := x.(interface{ pooled() *Pooled }); ok {
			h := p.pooled()
			if h.mark.released != "" {
				panic(fmt.Sprintf("sim: use of released %s in hand-off (released in %s)", h.mark.what, h.mark.released))
			}
			if h.listable {
				h.mark.owner = to
			}
		}
		c, ok := x.(interface{ Carries() any })
		if !ok {
			return
		}
		x = c.Carries()
	}
}
