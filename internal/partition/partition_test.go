package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"dedupsim/internal/gen"
	"dedupsim/internal/graph"
)

func randomDAG(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		g.AddEdge(int32(u), int32(v))
	}
	g.Dedup()
	return g
}

// checkResult verifies the core partitioning invariants.
func checkResult(t *testing.T, g *graph.Graph, r *Result, maxSize int64) {
	t.Helper()
	if len(r.Assign) != g.NumNodes() {
		t.Fatalf("assign length %d != %d nodes", len(r.Assign), g.NumNodes())
	}
	for v, p := range r.Assign {
		if p < 0 || int(p) >= r.NumParts {
			t.Fatalf("node %d assigned out of range: %d", v, p)
		}
	}
	var total int64
	for p, w := range r.Weights {
		if w <= 0 {
			t.Fatalf("partition %d empty (weight %d)", p, w)
		}
		if w > maxSize {
			t.Fatalf("partition %d exceeds max size: %d > %d", p, w, maxSize)
		}
		total += w
	}
	if total != int64(g.NumNodes()) {
		t.Fatalf("weights sum %d != %d nodes", total, g.NumNodes())
	}
	if !r.Quotient(g).IsAcyclic() {
		t.Fatal("quotient graph is cyclic")
	}
}

func TestPartitionChain(t *testing.T) {
	// A 10-node chain with max size 4 must become >= 3 partitions, acyclic.
	g := graph.New(10)
	for i := int32(0); i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	r, err := Partition(g, Options{MaxSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, r, 4)
	if r.NumParts < 3 || r.NumParts > 5 {
		t.Fatalf("chain of 10 with max 4: parts = %d", r.NumParts)
	}
}

func TestPartitionCollapsesTree(t *testing.T) {
	// A binary in-tree (reduction tree) of 15 nodes collapses into one
	// partition when the size cap allows.
	g := graph.New(15)
	for i := int32(1); i < 15; i++ {
		g.AddEdge(i, (i-1)/2) // children feed parents; root 0 is the sink
	}
	r, err := Partition(g, Options{MaxSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, r, 64)
	if r.NumParts != 1 {
		t.Fatalf("reduction tree: parts = %d, want 1", r.NumParts)
	}
}

func TestPartitionRespectsMaxSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomDAG(rng, 500, 1200)
	r, err := Partition(g, Options{MaxSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, r, 16)
}

func TestPartitionCoarsens(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomDAG(rng, 800, 2000)
	r, err := Partition(g, Options{MaxSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, r, 32)
	if r.NumParts > g.NumNodes()/3 {
		t.Fatalf("poor coarsening: %d parts for %d nodes", r.NumParts, g.NumNodes())
	}
}

func TestPropertyRandomDAGsStayAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(200)
		g := randomDAG(rng, n, rng.Intn(4*n))
		max := 4 + rng.Intn(40)
		r, err := Partition(g, Options{MaxSize: max})
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, g, r, int64(max))
	}
}

func TestPartitionFrozen(t *testing.T) {
	// Nodes 0 and 5 of a chain are frozen: they must stay singleton
	// partitions while the free runs between them still coarsen.
	g := graph.New(10)
	for i := int32(0); i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	frozen := make([]bool, 10)
	frozen[0], frozen[5] = true, true
	r, err := PartitionFrozen(g, frozen, Options{MaxSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, r, 48)
	for _, v := range []int{0, 5} {
		if w := r.Weights[r.Assign[v]]; w != 1 {
			t.Fatalf("frozen node %d grew into a %d-node partition: %v", v, w, r.Assign)
		}
	}
	if r.Assign[1] != r.Assign[4] || r.Assign[6] != r.Assign[9] {
		t.Fatalf("free runs not coarsened: %v", r.Assign)
	}
	if _, err := PartitionFrozen(g, make([]bool, 3), Options{}); err == nil {
		t.Fatal("frozen slice of the wrong length accepted")
	}
}

// TestMergeSinksFirstFit: phase 4 packs a parent's sinks first-fit, so
// a small sink after a large one still joins the first small one, and a
// frozen sink stays alone.
func TestMergeSinksFirstFit(t *testing.T) {
	g := graph.New(5)
	for s := int32(1); s < 5; s++ {
		g.AddEdge(0, s)
	}
	m := NewMerger(g, []int64{1, 10, 45, 10, 1}, []bool{false, false, false, false, true})
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	mergeSinks(m, order, 48)
	if m.Rep(1) != m.Rep(3) || m.Weight(1) != 20 {
		t.Fatalf("sinks 1 and 3 not packed together (weight %d)", m.Weight(1))
	}
	if m.Rep(2) == m.Rep(1) || m.Rep(4) == m.Rep(1) || m.Rep(4) == m.Rep(2) {
		t.Fatal("packed past the cap or packed a frozen sink")
	}
}

func TestQuality(t *testing.T) {
	// 0 -> {1, 2}, 2 -> 3: partitions {0}, {1}, {2, 3} have sizes 1, 1, 2
	// and two sinks.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	r := &Result{Assign: []int32{0, 1, 2, 2}, NumParts: 3, Weights: []int64{1, 1, 2}}
	q := r.Quality(g)
	if q.MeanSize != 4.0/3 || q.SinkFrac != 2.0/3 || !reflect.DeepEqual(q.SizeHist, []int{2, 1}) {
		t.Fatalf("quality = %+v", q)
	}
}

func TestPartitionRealDesign(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.15))
	g := c.SchedGraph()
	r, err := Partition(g, Options{MaxSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, g, r, 32)
	if r.NumParts >= g.NumNodes()/2 {
		t.Fatalf("real design barely coarsened: %d parts / %d nodes", r.NumParts, g.NumNodes())
	}
	t.Logf("Rocket-2C (scaled): %d nodes -> %d partitions", g.NumNodes(), r.NumParts)
}

func TestMergerIncrementalSafety(t *testing.T) {
	// The two-pair trap: A->C, D->B, B->C edge... construct the case where
	// merging (A,B) and (C,D) are each safe in the snapshot but unsafe
	// together. Graph: A->C, B->C is wrong; use: B->C, D->A. Pairs (A,B)
	// and (C,D): A,B have no path between them; C,D neither. Merged AB and
	// CD: AB -> CD via B->C, CD -> AB via D->A: cycle. The Merger must
	// refuse the second merge.
	g := graph.New(4) // 0=A 1=B 2=C 3=D
	g.AddEdge(1, 2)   // B->C
	g.AddEdge(3, 0)   // D->A
	m := NewMerger(g, nil, nil)
	if !m.TryMerge(0, 1) {
		t.Fatal("first merge (A,B) should be safe")
	}
	if m.TryMerge(2, 3) {
		t.Fatal("second merge (C,D) must be refused after (A,B)")
	}
}

func TestMergerFrozen(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	m := NewMerger(g, nil, []bool{true, false, false})
	if m.TryMerge(0, 1) {
		t.Fatal("frozen group merged")
	}
	if !m.TryMerge(1, 2) {
		t.Fatal("unfrozen merge refused")
	}
	if m.Frozen(1) || !m.Frozen(0) {
		t.Fatal("frozen flags wrong")
	}
}

func TestMergerWeights(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	m := NewMerger(g, []int64{5, 7, 11}, nil)
	m.Merge(0, 1)
	if m.Weight(0) != 12 || m.Weight(1) != 12 {
		t.Fatalf("merged weight = %d, want 12", m.Weight(0))
	}
	if m.Weight(2) != 11 {
		t.Fatalf("untouched weight = %d", m.Weight(2))
	}
}

func TestMergerBudgetIsConservative(t *testing.T) {
	// A long indirect path with a tiny budget: the check must refuse the
	// merge (conservative) rather than allow a cycle.
	n := 50
	g := graph.New(int32OK(n))
	g.AddEdge(0, int32(n-1)) // direct edge head -> tail
	for i := int32(0); i < int32(n-2); i++ {
		g.AddEdge(i, i+1) // long indirect path 0 -> 1 -> ... -> n-2 -> ?
	}
	g.AddEdge(int32(n-2), int32(n-1))
	m := newMerger(g, nil, nil, 3) // budget far too small to find the path
	if m.TryMerge(0, int32(n-1)) {
		t.Fatal("budget-limited check must refuse, not allow")
	}
}

func int32OK(n int) int { return n }

func TestPropertyMergerNeverCreatesCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(60)
		g := randomDAG(rng, n, rng.Intn(3*n))
		m := NewMerger(g, nil, nil)
		for k := 0; k < n; k++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a != b {
				m.TryMerge(a, b)
			}
		}
		assign, parts := m.Assignment()
		if !graph.Quotient(g, assign, parts).IsAcyclic() {
			t.Fatalf("trial %d: merger produced cyclic quotient", trial)
		}
	}
}
