package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func keyN(i int) string { return fmt.Sprintf("file-%d.php|<?php echo %d; ?>", i, i) }

func TestRingSequenceDeterministic(t *testing.T) {
	build := func(order []string) *ring {
		r := newRing(16)
		for _, id := range order {
			r.add(id)
		}
		return r
	}
	a := build([]string{"w1", "w2", "w3"})
	b := build([]string{"w3", "w1", "w2"}) // insertion order must not matter

	for i := 0; i < 50; i++ {
		key := keyN(i)
		sa := a.sequence(key)
		if got := a.sequence(key); !reflect.DeepEqual(sa, got) {
			t.Fatalf("sequence(%q) unstable across calls: %v vs %v", key, sa, got)
		}
		if sb := b.sequence(key); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("sequence(%q) depends on insertion order: %v vs %v", key, sa, sb)
		}
	}
}

func TestRingSequenceCoversAllWorkersOnce(t *testing.T) {
	r := newRing(16)
	ids := []string{"w1", "w2", "w3", "w4"}
	for _, id := range ids {
		r.add(id)
	}
	for i := 0; i < 50; i++ {
		seq := r.sequence(keyN(i))
		if len(seq) != len(ids) {
			t.Fatalf("sequence(%q) = %v; want all %d workers", keyN(i), seq, len(ids))
		}
		seen := map[string]bool{}
		for _, id := range seq {
			if seen[id] {
				t.Fatalf("sequence(%q) repeats %s: %v", keyN(i), id, seq)
			}
			seen[id] = true
		}
	}
}

// Removing a worker must not move keys it did not own, and keys it did
// own must fail over to the next worker in their prior sequence — the
// property that keeps worker-local caches warm across an eviction.
func TestRingFailoverOrder(t *testing.T) {
	r := newRing(32)
	for _, id := range []string{"w1", "w2", "w3"} {
		r.add(id)
	}
	const victim = "w2"

	type placement struct{ owner, next string }
	before := map[string]placement{}
	for i := 0; i < 200; i++ {
		seq := r.sequence(keyN(i))
		before[keyN(i)] = placement{owner: seq[0], next: seq[1]}
	}

	r.remove(victim)
	for key, was := range before {
		now := r.sequence(key)[0]
		switch {
		case was.owner != victim && now != was.owner:
			t.Fatalf("key %q moved from %s to %s although %s was removed", key, was.owner, now, victim)
		case was.owner == victim && now != was.next:
			t.Fatalf("key %q failed over to %s; want its prior successor %s", key, now, was.next)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	r := newRing(64)
	counts := map[string]int{}
	for _, id := range []string{"w1", "w2", "w3"} {
		r.add(id)
	}
	const total = 3000
	for i := 0; i < total; i++ {
		counts[r.sequence(keyN(i))[0]]++
	}
	for id, n := range counts {
		if n < total/10 {
			t.Errorf("worker %s owns %d/%d keys; consistent hashing should not starve a worker", id, n, total)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("owners = %v; want all 3 workers represented", counts)
	}
}

func TestRingAddIdempotentAndRemove(t *testing.T) {
	r := newRing(8)
	r.add("w1")
	r.add("w1")
	if len(r.points) != 8 {
		t.Fatalf("double add left %d points; want %d", len(r.points), 8)
	}
	r.add("w2")
	r.remove("w1")
	if len(r.points) != 8 {
		t.Fatalf("remove left %d points; want %d", len(r.points), 8)
	}
	if owner := r.sequence(keyN(1))[0]; owner != "w2" {
		t.Fatalf("owner = %q after removing the only other worker; want w2", owner)
	}
}

func TestRingEmpty(t *testing.T) {
	r := newRing(8)
	if seq := r.sequence(keyN(1)); seq != nil {
		t.Fatalf("empty ring sequence = %v; want nil", seq)
	}
}
