package metrics

import "testing"

func TestShardedCounters(t *testing.T) {
	s := NewSharded(4)
	if len(s.counters) != 4 {
		t.Fatalf("%d shards, want 4", len(s.counters))
	}
	// Mixed handle and named increments, spread across shards.
	h0 := s.Shard(0).Handle("delivered")
	h0.Inc(10)
	s.Shard(1).Inc("delivered", 5)
	s.Shard(2).Inc("lost.wire", 3)
	s.Shard(3).Inc("delivered", 1)
	m := s.Merged()
	if got := m.Get("delivered"); got != 16 {
		t.Fatalf("Merged delivered = %d, want 16", got)
	}
	if got := m.Get("lost.wire"); got != 3 {
		t.Fatalf("Merged lost.wire = %d, want 3", got)
	}
	// Merging must not alias shard state: bump a shard afterwards and the
	// earlier merge stays frozen.
	s.Shard(0).Inc("delivered", 100)
	if got := m.Get("delivered"); got != 16 {
		t.Fatalf("merged view mutated after shard increment: %d", got)
	}
}

func TestShardedCountersPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewSharded(0)
}
