//go:build packetdebug

package sim

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", r, want)
		}
	}()
	f()
}

// The debug list poisons what is released, and a second release or a use
// after release panics naming the kind of object and both sites.
func TestFreeListDebug(t *testing.T) {
	s := New(1)
	l := newThingList(s)
	a := l.Get()
	a.Size = 7
	a.Live(s, "before release")
	l.Put(a, "first site")
	if a.Size != -1 || a.Payload != "poison" {
		t.Fatalf("released object does not hold the poison: %+v", *a)
	}
	mustPanic(t, "double release of thing in second site (first released in first site)", func() { l.Put(a, "second site") })
	mustPanic(t, "use of released thing in handler (released in first site)", func() { a.Live(s, "handler") })
}

// The owner stamp: an object goes back on the list of the shard that holds
// it and on no other, is touched by that shard alone, and a hand-off moves
// it to another shard together with everything it carries.
func TestFreeListDebugOwnerStamp(t *testing.T) {
	eng := NewSharded(1, 2, 1)
	defer eng.Close()
	a, b := eng.Shard(0), eng.Shard(1)
	la, lb := newThingList(a), newThingList(b)
	x := la.Get()
	mustPanic(t, "cross-shard release of thing in b's handler: owned by shard 0, released on shard 1",
		func() { lb.Put(x, "b's handler") })
	mustPanic(t, "thing owned by shard 0 touched by shard 1 in b's handler", func() { x.Live(b, "b's handler") })
	x.Live(a, "a's handler")

	inner := la.Get()
	x.Payload = inner
	HandOff(x, b)
	x.Live(b, "b's handler")
	inner.Live(b, "b's handler")
	if !lb.Put(x, "b's handler") {
		t.Fatal("the list of the shard a hand-off moved the object to refused it")
	}
	mustPanic(t, "cross-shard release of thing in a's handler: owned by shard 1, released on shard 0",
		func() { la.Put(inner, "a's handler") })
	lb.Put(inner, "b's handler")
	mustPanic(t, "use of released thing in hand-off (released in b's handler)", func() { HandOff(inner, a) })

	// What a stream has carried is no list's: no shard's check applies.
	u := la.Get()
	u.Unpool()
	u.Live(b, "b's handler")
	if lb.Put(u, "b's handler") {
		t.Fatal("an unpooled object was taken back")
	}
}
