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
	l := newThingList()
	a := l.Get()
	a.Size = 7
	a.Live("before release")
	l.Put(a, "first site")
	if a.Size != -1 || a.Payload != "poison" {
		t.Fatalf("released object not poisoned: %+v", *a)
	}
	mustPanic(t, "double release of thing in second site (first released in first site)", func() { l.Put(a, "second site") })
	mustPanic(t, "use of released thing in handler (released in first site)", func() { a.Live("handler") })
}
