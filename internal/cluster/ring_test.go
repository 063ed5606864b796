package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

func owners(r *Ring, keys []string) map[string]string {
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		m[k] = r.Owner(k)
	}
	return m
}

// TestRingRebalanceOnAdd is the consistent-hashing property the fleet's
// compile-cache affinity depends on: when a node joins an N-node ring,
// roughly 1/N of the keys move — and every key that moves, moves TO the
// new node. Keys whose owner survives must never reshuffle among the
// existing nodes.
func TestRingRebalanceOnAdd(t *testing.T) {
	const nodes, nkeys = 5, 2000
	r := NewRing()
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	keys := testKeys(nkeys)
	before := owners(r, keys)

	r.Add("node-new")
	moved := 0
	for _, k := range keys {
		after := r.Owner(k)
		if after == before[k] {
			continue
		}
		moved++
		if after != "node-new" {
			t.Fatalf("key %s moved %s -> %s, but only the new node may gain keys on Add",
				k, before[k], after)
		}
	}

	// Expect ~1/(N+1) of the keyspace to move. Virtual-node placement is
	// statistical, so accept a generous band around the ideal.
	frac := float64(moved) / nkeys
	ideal := 1.0 / float64(nodes+1)
	if frac < 0.4*ideal || frac > 2.5*ideal {
		t.Errorf("adding 1 of %d nodes moved %.1f%% of keys, want about %.1f%%",
			nodes+1, 100*frac, 100*ideal)
	}
}

// TestRingRebalanceOnRemove is the mirror property: removing a node moves
// exactly that node's keys (all of them, since it no longer exists) and
// nothing else.
func TestRingRebalanceOnRemove(t *testing.T) {
	const nodes, nkeys = 5, 2000
	r := NewRing()
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	keys := testKeys(nkeys)
	before := owners(r, keys)
	const victim = "node-3"

	r.Remove(victim)
	moved := 0
	for _, k := range keys {
		after := r.Owner(k)
		if before[k] == victim {
			moved++
			if after == victim {
				t.Fatalf("key %s still owned by removed node %s", k, victim)
			}
			continue
		}
		if after != before[k] {
			t.Fatalf("key %s moved %s -> %s though its owner was not removed",
				k, before[k], after)
		}
	}

	frac := float64(moved) / nkeys
	ideal := 1.0 / float64(nodes)
	if frac < 0.4*ideal || frac > 2.5*ideal {
		t.Errorf("removing 1 of %d nodes moved %.1f%% of keys, want about %.1f%%",
			nodes, 100*frac, 100*ideal)
	}
}

// TestRingSuccessors: the fallback chain starts at the key's owner,
// never repeats a member, and clamps at the member count.
func TestRingSuccessors(t *testing.T) {
	r := NewRing()
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	for _, k := range testKeys(100) {
		succ := r.Successors(k, 10)
		if len(succ) != 4 {
			t.Fatalf("key %s: got %d successors, want all 4 members", k, len(succ))
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("key %s: successor chain starts at %s, owner is %s", k, succ[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, id := range succ {
			if seen[id] {
				t.Fatalf("key %s: duplicate successor %s", k, id)
			}
			seen[id] = true
		}
	}
}

// TestRingEmptyAndSingle covers the degenerate rings the router hits
// during fleet bring-up and after the last node dies.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing()
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("empty ring owns %q, want none", got)
	}
	if succ := r.Successors("anything", 3); succ != nil {
		t.Fatalf("empty ring has successors %v", succ)
	}
	r.Add("only")
	for _, k := range testKeys(50) {
		if got := r.Owner(k); got != "only" {
			t.Fatalf("single-member ring: key %s owned by %q", k, got)
		}
	}
	r.Remove("only")
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("drained ring owns %q, want none", got)
	}
}
