package metrics

// Sharded is a set of per-shard Counters for parallel simulation: each
// shard increments only its own Counter (no atomics, no locks, no false
// sharing on hot cells), and a merged fleet-wide view is computed between
// runs, when no shard is executing. It is the counters analogue of
// sim.Sharded's ownership rule: shard-local writes during a window,
// coordinator-only aggregation at the barrier.
type Sharded struct {
	counters []*Counter
}

// NewSharded creates k independent counters.
func NewSharded(k int) *Sharded {
	if k < 1 {
		panic("metrics: sharded counter set needs at least one shard")
	}
	s := &Sharded{counters: make([]*Counter, k)}
	for i := range s.counters {
		s.counters[i] = &Counter{}
	}
	return s
}

// Shard returns shard i's Counter. Only shard i's goroutine may increment
// it while a sharded run is in flight.
func (s *Sharded) Shard(i int) *Counter { return s.counters[i] }

// Handles pre-resolves the named cell on every shard, in shard order. Hot
// paths index the returned slice by executing shard and increment without
// a map lookup — the sharded analogue of Counter.Handle.
func (s *Sharded) Handles(name string) []Handle {
	hs := make([]Handle, len(s.counters))
	for i, c := range s.counters {
		hs[i] = c.Handle(name)
	}
	return hs
}

// Merged sums every shard into one Counter. Call it only between runs —
// it reads all shards without synchronization.
func (s *Sharded) Merged() Counter {
	var out Counter
	for _, c := range s.counters {
		out.Merge(c)
	}
	return out
}
