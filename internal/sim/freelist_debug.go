//go:build packetdebug

package sim

import "fmt"

// Debug free list, in the manner of internal/phys/pool_debug.go: keeping a
// pooled object past the handler it was delivered to is a bug — the list
// hands it to the next sender. Here nothing is reused: Put overwrites the
// object with the list's poison value and remembers the site, a second Put
// panics naming both sites, and a poisoned object entering a handler that
// checks it (Pooled.Live) panics there. A Put on the wrong shard's list is
// not something the list can see; two goroutines on one list is the race
// detector's to report, and CI runs this build under -race.

const PoolDebug = true

// poolMark records what kind of object this is and where it was released;
// released is empty while the object is live.
type poolMark struct {
	what     string
	released string
}

// FreeList is the debug twin of the list in freelist.go: it lists nothing.
type FreeList[T any, P Poolable[T]] struct {
	what   string
	poison T
}

// NewFreeList returns the list of objects called what in its panics; poison
// is what Put overwrites a released object with.
func NewFreeList[T any, P Poolable[T]](what string, poison T) FreeList[T, P] {
	return FreeList[T, P]{what: what, poison: poison}
}

// Get allocates: a released object stays poisoned for whoever still holds it.
func (l *FreeList[T, P]) Get() P {
	var p P = new(T)
	h := p.pooled()
	h.listable = true
	h.mark.what = l.what
	return p
}

// Put poisons an object Get handed out and remembers where; a second Put of
// it panics. Anything else it leaves alone, as the production list does.
func (l *FreeList[T, P]) Put(p P, where string) bool {
	h := p.pooled()
	if h.mark.released != "" {
		panic(fmt.Sprintf("sim: double release of %s in %s (first released in %s)", h.mark.what, where, h.mark.released))
	}
	if !h.listable {
		return false
	}
	*p = l.poison
	*h = Pooled{mark: poolMark{what: l.what, released: where}}
	return true
}

// Len is always zero: nothing is listed.
func (l *FreeList[T, P]) Len() int { return 0 }

// Live panics when the object has been released.
func (h *Pooled) Live(where string) {
	if h.mark.released != "" {
		panic(fmt.Sprintf("sim: use of released %s in %s (released in %s)", h.mark.what, where, h.mark.released))
	}
}
