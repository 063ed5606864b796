// Package graph provides the directed-graph substrate used throughout the
// simulator tool flow: the elaborated circuit is a graph of operations, the
// partitioner produces a quotient (partition) graph, and both must remain
// acyclic for a full-cycle simulator to schedule each element at most once
// per simulated cycle.
//
// Nodes are dense int32 identifiers in [0, NumNodes). The zero value of
// Graph is an empty graph ready to use. Edges may be added in any order;
// duplicate edges are permitted by AddEdge and removed by Dedup (the
// quotient construction always deduplicates).
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node within a Graph. IDs are dense and start at 0.
type NodeID = int32

// Graph is a mutable directed graph stored as forward and reverse adjacency
// lists. It is optimized for the build-once, traverse-many access pattern of
// a compiler flow rather than for incremental mutation.
type Graph struct {
	out [][]NodeID
	in  [][]NodeID
	m   int // edge count, including any duplicates
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{
		out: make([][]NodeID, n),
		in:  make([][]NodeID, n),
	}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of edges, counting duplicates.
func (g *Graph) NumEdges() int { return g.m }

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return NodeID(len(g.out) - 1)
}

// AddNodes appends n new nodes and returns the ID of the first.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.out))
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return first
}

// AddEdge inserts the directed edge u -> v. It does not check for
// duplicates; callers that need a simple graph should call Dedup once after
// construction.
func (g *Graph) AddEdge(u, v NodeID) {
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
}

// Succs returns the successors of u. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Succs(u NodeID) []NodeID { return g.out[u] }

// Preds returns the predecessors of u. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Preds(u NodeID) []NodeID { return g.in[u] }

// OutDegree returns the number of outgoing edges of u.
func (g *Graph) OutDegree(u NodeID) int { return len(g.out[u]) }

// InDegree returns the number of incoming edges of u.
func (g *Graph) InDegree(u NodeID) int { return len(g.in[u]) }

// HasEdge reports whether an edge u -> v exists. It is O(out-degree of u).
func (g *Graph) HasEdge(u, v NodeID) bool {
	for _, w := range g.out[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Dedup sorts all adjacency lists and removes duplicate edges, yielding a
// simple graph. Self-loops are preserved (the circuit elaborator never
// creates them, but the quotient construction can; see Quotient).
func (g *Graph) Dedup() {
	g.m = 0
	for u := range g.out {
		g.out[u] = dedupSorted(g.out[u])
		g.m += len(g.out[u])
	}
	for v := range g.in {
		g.in[v] = dedupSorted(g.in[v])
	}
}

func dedupSorted(s []NodeID) []NodeID {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d}", g.NumNodes(), g.NumEdges())
}
