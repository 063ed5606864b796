package graph

import "slices"

// Quotient builds the partition (quotient) graph induced by assigning each
// node of g to one of numParts groups. assign[v] must be in [0, numParts);
// an assignment of -1 is rejected by panicking, since every circuit node
// must belong to exactly one partition for scheduling to be meaningful.
//
// Edges between nodes in the same group become self-loops in the quotient
// and are dropped; edges across groups are deduplicated, so every row is
// sorted and duplicate-free. Whether the result is acyclic is exactly the
// "legal acyclic partitioning" question at the heart of the paper
// (Sections 2.5 and 3.2): a cyclic quotient would deadlock a schedule that
// evaluates each partition at most once per cycle.
func Quotient(g *Graph, assign []int32, numParts int) *Graph {
	if len(assign) != g.NumNodes() {
		panic("graph: assignment length does not match node count")
	}
	inRange := func(p int32) int32 {
		if p < 0 || int(p) >= numParts {
			panic("graph: node assigned outside [0, numParts)")
		}
		return p
	}
	b := newCSR(numParts)
	for u, vs := range g.out {
		gu := inRange(assign[u])
		for _, v := range vs {
			if gv := inRange(assign[v]); gu != gv {
				b.count(gu, gv)
			}
		}
	}
	b.alloc()
	for u, vs := range g.out {
		gu := assign[u]
		for _, v := range vs {
			if gv := assign[v]; gu != gv {
				b.fill(gu, gv)
			}
		}
	}
	return b.graph()
}

// csr builds a simple graph in compressed-sparse-row form from an edge
// sequence walked twice: count every edge, alloc, then fill every edge in
// the same order. Each direction lives in one flat array.
type csr struct {
	outOff, inOff   []int32 // row p spans [off[p], off[p+1])
	outNext, inNext []int32 // fill cursors
	outFlat, inFlat []NodeID
}

func newCSR(n int) *csr {
	return &csr{outOff: make([]int32, n+1), inOff: make([]int32, n+1)}
}

func (b *csr) count(u, v NodeID) {
	b.outOff[u+1]++
	b.inOff[v+1]++
}

func (b *csr) alloc() {
	n := len(b.outOff) - 1
	for p := 0; p < n; p++ {
		b.outOff[p+1] += b.outOff[p]
		b.inOff[p+1] += b.inOff[p]
	}
	b.outFlat = make([]NodeID, b.outOff[n])
	b.inFlat = make([]NodeID, b.inOff[n])
	b.outNext = slices.Clone(b.outOff[:n])
	b.inNext = slices.Clone(b.inOff[:n])
}

func (b *csr) fill(u, v NodeID) {
	b.outFlat[b.outNext[u]] = v
	b.outNext[u]++
	b.inFlat[b.inNext[v]] = u
	b.inNext[v]++
}

// graph sorts and dedups each row in place. Each row is capped at its own
// length, so a later AddEdge copies the row instead of overwriting the
// next one.
func (b *csr) graph() *Graph {
	n := len(b.outOff) - 1
	g := New(n)
	for p := 0; p < n; p++ {
		g.out[p] = slices.Clip(dedupSorted(b.outFlat[b.outOff[p]:b.outOff[p+1]]))
		g.in[p] = slices.Clip(dedupSorted(b.inFlat[b.inOff[p]:b.inOff[p+1]]))
		g.m += len(g.out[p])
	}
	return g
}

// GroupMembers inverts a dense assignment: result[p] lists the nodes
// assigned to group p, in ascending node order. The lists share one
// backing array, each capped at its length.
func GroupMembers(assign []int32, numParts int) [][]NodeID {
	members := make([][]NodeID, numParts)
	counts := make([]int32, numParts)
	for _, p := range assign {
		counts[p]++
	}
	flat := make([]NodeID, len(assign))
	off := int32(0)
	for p, c := range counts {
		members[p] = flat[off : off : off+c]
		off += c
	}
	for v, p := range assign {
		members[p] = append(members[p], NodeID(v))
	}
	return members
}
