package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for any random DAG, frozen set and options, the partitioning
// is a total, acyclic, size-respecting assignment that keeps frozen nodes
// singletons and, after phase 4, leaves no two unfrozen sink partitions
// of one parent that would still fit together.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint16, maxRaw, frozenRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%150)
		m := int(mRaw) % (3 * n)
		maxSize := 2 + int(maxRaw%60)
		g := randomDAG(rng, n, m)
		var frozen []bool
		if frozenPct := int(frozenRaw % 4 * 10); frozenPct > 0 {
			frozen = make([]bool, n)
			for v := range frozen {
				frozen[v] = rng.Intn(100) < frozenPct
			}
		}
		r, err := PartitionFrozen(g, frozen, Options{MaxSize: maxSize})
		if err != nil {
			t.Log(err)
			return false
		}
		if len(r.Assign) != n {
			t.Logf("%d of %d nodes assigned", len(r.Assign), n)
			return false
		}
		frozenPart := make([]bool, r.NumParts)
		for v, p := range r.Assign {
			if p < 0 || int(p) >= r.NumParts {
				t.Logf("node %d in partition %d of %d", v, p, r.NumParts)
				return false
			}
			if frozen != nil && frozen[v] {
				if r.Weights[p] != 1 {
					t.Logf("frozen node %d shares partition %d", v, p)
					return false
				}
				frozenPart[p] = true
			}
		}
		for p, w := range r.Weights {
			if w <= 0 || w > int64(maxSize) {
				t.Logf("partition %d has %d nodes, cap %d", p, w, maxSize)
				return false
			}
		}
		q := r.Quotient(g)
		if !q.IsAcyclic() {
			t.Log("cyclic quotient")
			return false
		}
		for p := 0; p < r.NumParts; p++ {
			var sinks []int32
			for _, s := range q.Succs(int32(p)) {
				if len(q.Succs(s)) == 0 && !frozenPart[s] {
					sinks = append(sinks, s)
				}
			}
			for i, a := range sinks {
				for _, b := range sinks[i+1:] {
					if r.Weights[a]+r.Weights[b] <= int64(maxSize) {
						t.Logf("sinks %d and %d of %d fit in %d", a, b, p, maxSize)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: DSU compress yields a dense, consistent assignment.
func TestQuickDSUCompress(t *testing.T) {
	f := func(seed int64, nRaw uint8, unions []uint16) bool {
		n := 2 + int(nRaw%60)
		d := newDSU(n)
		for _, u := range unions {
			a := int32(u>>8) % int32(n)
			b := int32(u&0xff) % int32(n)
			d.union(a, b)
		}
		assign, parts := d.compress()
		if parts < 1 || parts > n {
			return false
		}
		// Same set <=> same group.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				same := d.find(int32(a)) == d.find(int32(b))
				if same != (assign[a] == assign[b]) {
					return false
				}
			}
		}
		// Dense IDs.
		used := make([]bool, parts)
		for _, p := range assign {
			if p < 0 || int(p) >= parts {
				return false
			}
			used[p] = true
		}
		for _, u := range used {
			if !u {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
