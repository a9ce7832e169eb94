package sim

import "testing"

// pooledThing is a struct of the kind the packages pool: a size, a pointer
// the list must not pin — what the thing carries — and the list's word.
type pooledThing struct {
	Size    int
	Payload any
	Pooled
}

// Carries is what HandOff follows from the thing to what it carries.
func (p *pooledThing) Carries() any { return p.Payload }

func newThingList(s *Simulator) FreeList[pooledThing, *pooledThing] {
	return NewFreeList[pooledThing](s, "thing", pooledThing{Size: -1, Payload: "poison"})
}

// An object goes out blank, comes back blank and goes out again; what the
// list did not hand out, or what has been unpooled since, it leaves alone.
func TestFreeListLifecycle(t *testing.T) {
	s := New(1)
	l := newThingList(s)
	a := l.Get()
	if a.Size != 0 || a.Payload != nil {
		t.Fatalf("fresh object not blank: %+v", *a)
	}
	a.Size, a.Payload = 7, "message"
	if !l.Put(a, "test") {
		t.Fatal("Put refused an object Get handed out")
	}
	if PoolDebug {
		if l.Len() != 0 || l.Get() == a {
			t.Fatal("the debug list reused an object")
		}
		return
	}
	if l.Len() != 1 || a.Size != 0 || a.Payload != nil {
		t.Fatalf("listed object not blank, or not listed: len %d, %+v", l.Len(), *a)
	}
	if l.Put(a, "again") || l.Len() != 1 {
		t.Fatal("a listed object was listed a second time")
	}
	b, c := l.Get(), l.Get()
	if b != a || c == a || l.Len() != 0 {
		t.Fatalf("want the listed object back first and a new one after it (len %d)", l.Len())
	}
	l.Put(b, "test")
	l.Put(c, "test")
	if l.Get() != c || l.Get() != b {
		t.Fatal("the list is not last in, first out")
	}

	own := &pooledThing{Size: 3, Payload: "mine"}
	if l.Put(own, "test") || l.Len() != 0 || own.Size != 3 || own.Payload != "mine" {
		t.Fatalf("an object built by hand was listed or touched: len %d, %+v", l.Len(), *own)
	}
	u := l.Get()
	u.Size = 5
	u.Unpool()
	if l.Put(u, "test") || l.Len() != 0 || u.Size != 5 {
		t.Fatalf("an unpooled object was listed or touched: len %d, %+v", l.Len(), *u)
	}
	u.Live(s, "test")
}

// Once the list holds what is in flight at once, Get and Put allocate nothing.
func TestFreeListAllocFree(t *testing.T) {
	l := newThingList(New(1))
	var out [8]*pooledThing
	cycle := func() {
		for i := range out {
			out[i] = l.Get()
			out[i].Payload = t // something the list must let go of
		}
		for _, p := range out {
			l.Put(p, "test")
		}
	}
	cycle()
	avg := testing.AllocsPerRun(100, cycle)
	if raceEnabled || PoolDebug {
		t.Logf("allocs per cycle under -race or packetdebug: %.2f (not asserted)", avg)
		return
	}
	if avg != 0 || l.Len() != len(out) {
		t.Errorf("%.2f allocs per cycle of %d objects and %d listed, want 0 and %d", avg, len(out), l.Len(), len(out))
	}
}
