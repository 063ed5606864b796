package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func buildGraph(n int, edges [][2]int32) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	order, err := g.TopoSort()
	if err != nil || len(order) != 0 {
		t.Fatalf("empty graph topo: %v %v", order, err)
	}
	if !g.IsAcyclic() {
		t.Fatal("empty graph should be acyclic")
	}
}

func TestAddNodesAndEdges(t *testing.T) {
	g := New(0)
	a := g.AddNode()
	b := g.AddNode()
	first := g.AddNodes(3)
	if a != 0 || b != 1 || first != 2 || g.NumNodes() != 5 {
		t.Fatalf("unexpected ids a=%d b=%d first=%d n=%d", a, b, first, g.NumNodes())
	}
	g.AddEdge(a, b)
	g.AddEdge(b, first)
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Fatal("HasEdge wrong")
	}
	if g.OutDegree(a) != 1 || g.InDegree(b) != 1 || g.InDegree(first) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestDedupRemovesDuplicates(t *testing.T) {
	g := buildGraph(3, [][2]int32{{0, 1}, {0, 1}, {0, 2}, {1, 2}, {1, 2}, {1, 2}})
	if g.NumEdges() != 6 {
		t.Fatalf("pre-dedup edges = %d", g.NumEdges())
	}
	g.Dedup()
	if g.NumEdges() != 3 {
		t.Fatalf("post-dedup edges = %d", g.NumEdges())
	}
	if len(g.Succs(1)) != 1 || len(g.Preds(2)) != 2 {
		t.Fatalf("adjacency not deduped: succs(1)=%v preds(2)=%v", g.Succs(1), g.Preds(2))
	}
}

func TestTopoSortLine(t *testing.T) {
	g := buildGraph(4, [][2]int32{{2, 1}, {1, 0}, {0, 3}})
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{2, 1, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoSortDeterministicTieBreak(t *testing.T) {
	// Diamond: 0 -> {1,2} -> 3. 1 and 2 are both ready after 0; the smaller
	// ID must come first.
	g := buildGraph(4, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoSortCyclicFails(t *testing.T) {
	g := buildGraph(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	if _, err := g.TopoSort(); err != ErrCyclic {
		t.Fatalf("want ErrCyclic, got %v", err)
	}
	if g.IsAcyclic() {
		t.Fatal("cyclic graph reported acyclic")
	}
}

func TestTopoLevels(t *testing.T) {
	// 0 -> 1 -> 3, 2 -> 3, 4 isolated.
	g := buildGraph(5, [][2]int32{{0, 1}, {1, 3}, {2, 3}})
	levels, err := g.TopoLevels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 0, 2, 0}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}

func TestFindCycleNilOnDAG(t *testing.T) {
	g := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if c := g.FindCycle(); c != nil {
		t.Fatalf("DAG returned cycle %v", c)
	}
}

func TestFindCycleReturnsRealCycle(t *testing.T) {
	g := buildGraph(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}})
	cyc := g.FindCycle()
	if cyc == nil {
		t.Fatal("no cycle found")
	}
	// Verify cycle edges exist and it closes.
	for i := range cyc {
		u, v := cyc[i], cyc[(i+1)%len(cyc)]
		if !g.HasEdge(u, v) {
			t.Fatalf("cycle %v has missing edge %d->%d", cyc, u, v)
		}
	}
	if len(cyc) != 3 {
		t.Fatalf("cycle %v, want length 3 (1->2->3->1)", cyc)
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	g := buildGraph(2, [][2]int32{{0, 0}, {0, 1}})
	if g.IsAcyclic() {
		t.Fatal("self-loop should be cyclic")
	}
	cyc := g.FindCycle()
	if len(cyc) != 1 || cyc[0] != 0 {
		t.Fatalf("self-loop cycle = %v", cyc)
	}
}

func TestQuotientDropsInternalEdgesAndDedups(t *testing.T) {
	// 0,1 in group 0; 2,3 in group 1. Internal edge 0->1 dropped; two cross
	// edges 1->2, 1->3 collapse onto a single quotient edge 0->1? No: they
	// are both group0->group1 so dedup to one edge.
	g := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {1, 3}})
	q := Quotient(g, []int32{0, 0, 1, 1}, 2)
	if q.NumNodes() != 2 || q.NumEdges() != 1 {
		t.Fatalf("quotient %v", q)
	}
	if !q.HasEdge(0, 1) {
		t.Fatal("missing quotient edge")
	}
}

func TestQuotientDetectsPartitionCycle(t *testing.T) {
	// Figure-4-style: an acyclic node graph whose partitioning is cyclic.
	// 0 -> 1 -> 2 -> 3, with groups {0,3} and {1,2}: group A -> group B -> group A.
	g := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if !g.IsAcyclic() {
		t.Fatal("node graph should be acyclic")
	}
	q := Quotient(g, []int32{0, 1, 1, 0}, 2)
	if q.IsAcyclic() {
		t.Fatal("quotient should be cyclic (A->B and B->A)")
	}
}

func TestQuotientRowsSortedAndIndependent(t *testing.T) {
	// Rows are filled in edge order from one flat array per direction;
	// each must come out sorted and duplicate-free, and growing one row
	// must not overwrite its neighbour.
	g := buildGraph(6, [][2]int32{{0, 5}, {0, 3}, {1, 5}, {0, 4}, {1, 2}, {0, 2}, {2, 5}, {3, 4}})
	q := Quotient(g, []int32{0, 0, 1, 2, 3, 4}, 5)
	want := [][]NodeID{{1, 2, 3, 4}, {4}, {3}, {}, {}}
	for p, w := range want {
		if got := q.Succs(NodeID(p)); !slices.Equal(got, w) {
			t.Fatalf("succs(%d) = %v, want %v", p, got, w)
		}
	}
	if got := q.Preds(4); !slices.Equal(got, []NodeID{0, 1}) {
		t.Fatalf("preds(4) = %v", got)
	}
	if q.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6", q.NumEdges())
	}
	for i := 0; i < 3; i++ { // past row 0's share of the flat arrays
		q.AddEdge(0, 0)
	}
	if got := q.Succs(1); !slices.Equal(got, []NodeID{4}) {
		t.Fatalf("AddEdge on row 0 overwrote row 1: %v", got)
	}
	if got := q.Preds(1); !slices.Equal(got, []NodeID{0}) {
		t.Fatalf("AddEdge on pred row 0 overwrote row 1: %v", got)
	}
}

func TestQuotientPanicsOnBadAssignment(t *testing.T) {
	g := buildGraph(2, [][2]int32{{0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range assignment")
		}
	}()
	Quotient(g, []int32{0, 5}, 2)
}

func TestGroupMembers(t *testing.T) {
	members := GroupMembers([]int32{1, 0, 1, 2, 0}, 3)
	if len(members) != 3 {
		t.Fatalf("groups = %d", len(members))
	}
	if len(members[0]) != 2 || members[0][0] != 1 || members[0][1] != 4 {
		t.Fatalf("group 0 = %v", members[0])
	}
	if len(members[1]) != 2 || members[1][0] != 0 || members[1][1] != 2 {
		t.Fatalf("group 1 = %v", members[1])
	}
	if len(members[2]) != 1 || members[2][0] != 3 {
		t.Fatalf("group 2 = %v", members[2])
	}
}

// randomDAG builds a random DAG where edges only go from lower to higher IDs.
func randomDAG(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		g.AddEdge(int32(u), int32(v))
	}
	g.Dedup()
	return g
}

func TestPropertyTopoOrderRespectsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		g := randomDAG(rng, n, rng.Intn(3*n))
		order, err := g.TopoSort()
		if err != nil {
			t.Fatalf("random DAG reported cyclic: %v", err)
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Succs(int32(u)) {
				if pos[u] >= pos[int(v)] {
					t.Fatalf("edge %d->%d violates topo order", u, v)
				}
			}
		}
	}
}

func TestQuickDedupIdempotent(t *testing.T) {
	f := func(edges []uint16) bool {
		n := 32
		g := New(n)
		for _, e := range edges {
			u := int32(e>>8) % int32(n)
			v := int32(e&0xff) % int32(n)
			g.AddEdge(u, v)
		}
		g.Dedup()
		m1 := g.NumEdges()
		g.Dedup()
		return g.NumEdges() == m1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
