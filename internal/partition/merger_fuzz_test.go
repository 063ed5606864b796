package partition

import (
	"math/rand"
	"slices"
	"testing"

	"dedupsim/internal/graph"
)

// FuzzMergerEquivalence drives the slice-based Merger and the map-based
// reference through one random DAG and one random sequence of merges:
// every answer and the final assignment must agree. Small DFS budgets make
// the answers depend on the exact size of every adjacency set, which is
// where the two representations could drift apart.
func FuzzMergerEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(40))
	f.Add(int64(2), uint8(30), uint8(3), uint8(200))
	f.Add(int64(3), uint8(60), uint8(0), uint8(120))
	f.Add(int64(4), uint8(90), uint8(7), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, size, budget, ops uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%96
		g := graph.New(n)
		for i := rng.Intn(4*n + 1); i > 0; i-- {
			u := rng.Intn(n - 1)
			g.AddEdge(int32(u), int32(u+1+rng.Intn(n-u-1))) // duplicates allowed
		}
		weights := make([]int64, n)
		frozen := make([]bool, n)
		for v := range weights {
			weights[v] = 1 + rng.Int63n(8)
			frozen[v] = rng.Intn(8) == 0
		}
		b := int(budget) % 24
		if b == 0 {
			b = dfsBudget
		}
		m := newMerger(g, weights, frozen, b)
		ref := newRefMerger(g, weights, frozen, b)
		for k := 0; k < int(ops); k++ {
			a, c := int32(rng.Intn(n)), int32(rng.Intn(n))
			if got, want := m.TryMerge(a, c), ref.TryMerge(a, c); got != want {
				t.Fatalf("op %d: TryMerge(%d, %d) = %v, reference %v", k, a, c, got, want)
			}
			if got, want := m.Rep(a), ref.Rep(a); got != want {
				t.Fatalf("op %d: Rep(%d) = %d, reference %d", k, a, got, want)
			}
			if m.Weight(a) != ref.Weight(a) || m.Frozen(a) != ref.Frozen(a) {
				t.Fatalf("op %d: group of %d differs in weight or frozen", k, a)
			}
		}
		ga, gn := m.Assignment()
		wa, wn := ref.Assignment()
		if gn != wn || !slices.Equal(ga, wa) {
			t.Fatalf("assignment %v (%d parts), reference %v (%d parts)", ga, gn, wa, wn)
		}
	})
}
