//go:build !packetdebug

package sim

// This file is the production free list. Build with -tags packetdebug to
// swap in freelist_debug.go, which reuses nothing and turns misuse of a
// pooled object (double release, use after release, release or use on a
// shard that does not hold it) into a panic.

// PoolDebug reports whether the packetdebug free list is compiled in: the
// allocation guards and list-length checks of the packages that pool skip
// their assertions under it.
const PoolDebug = false

// poolMark is the debug list's per-object state; empty here.
type poolMark struct{}

// FreeList is the list of released objects of one kind that one shard keeps
// (hang it off the shard's Simulator with Local, or index it by shard): a
// stack of blank objects, touched by the shard's goroutine alone. T embeds
// Pooled. Get and Put are the whole life of a pooled object: whoever sends
// it takes it with Get, the one handler that consumes it gives it back with
// Put on its own shard's list, and nobody keeps it in between. A list is as
// long as the largest excess of Puts over Gets its shard has ever seen —
// nothing caps it — so what answers a pooled message should be taken from
// the list the message is put on (see DESIGN.md §6, "Who owns a packet").
type FreeList[T any, P Poolable[T]] struct {
	free []P
}

// NewFreeList returns an empty list for the shard s drives. s, what (the
// kind of object) and poison (what a released object is overwritten with)
// are the debug list's, for its owner stamp and its panics, and unused here.
func NewFreeList[T any, P Poolable[T]](s *Simulator, what string, poison T) FreeList[T, P] {
	return FreeList[T, P]{}
}

// Get takes a blank object from the list, or allocates one.
func (l *FreeList[T, P]) Get() P {
	var p P
	if i := len(l.free) - 1; i >= 0 {
		p = l.free[i]
		l.free[i] = nil
		l.free = l.free[:i]
	} else {
		p = new(T)
	}
	p.pooled().listable = true
	return p
}

// Put ends the life of an object Get handed out: it is blanked, so the list
// pins nothing it pointed at and the next taker finds nothing of this use in
// it, and listed. An object that is not the list's — built by hand, or
// carried by a stream since (Unpool) — is left exactly as it is, for the
// garbage collector, and Put reports false. where names the site for the
// debug list.
func (l *FreeList[T, P]) Put(p P, where string) bool {
	if !p.pooled().listable {
		return false
	}
	var blank T
	*p = blank
	l.free = append(l.free, p)
	return true
}

// Len is the number of objects on the list.
func (l *FreeList[T, P]) Len() int { return len(l.free) }

// Live is the debug list's checkpoint for an object entering a handler that
// runs on the shard s drives.
func (h *Pooled) Live(s *Simulator, where string) {}

// HandOff is the debug list's move of an object to the shard to drives, for
// whoever carries it across: the owner stamp of x and of everything x
// carries — what its Carries method returns, and on down — goes to that
// shard, so its release there passes and one anywhere else panics.
func HandOff(x any, to *Simulator) {}
