package graph

import "errors"

// ErrCyclic is returned by TopoSort when the graph contains a directed
// cycle and therefore has no topological order.
var ErrCyclic = errors.New("graph: cycle detected, no topological order exists")

// TopoSort returns the nodes in a topological order using Kahn's
// algorithm. Ties are broken by node ID so the order is deterministic.
// It returns ErrCyclic if the graph is cyclic.
func (g *Graph) TopoSort() ([]NodeID, error) {
	n := g.NumNodes()
	indeg := make([]int32, n)
	for v := 0; v < n; v++ {
		indeg[v] = int32(len(g.in[v]))
	}
	// A monotone frontier (min-heap by ID) keeps the order deterministic
	// without a full sort per step.
	heap := make(nodeHeap, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			heap.push(NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for len(heap) > 0 {
		u := heap.pop()
		order = append(order, u)
		for _, v := range g.out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				heap.push(v)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no directed cycles.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// TopoLevels assigns each node its longest-path depth from any source:
// level(v) = 1 + max(level(preds)), sources at level 0. Levels drive
// levelized scheduling: an edge only ever reaches a strictly deeper
// level. Returns ErrCyclic on cyclic input.
func (g *Graph) TopoLevels() ([]int32, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	levels := make([]int32, g.NumNodes())
	for _, u := range order {
		lvl := int32(0)
		for _, p := range g.in[u] {
			if levels[p]+1 > lvl {
				lvl = levels[p] + 1
			}
		}
		levels[u] = lvl
	}
	return levels, nil
}

// FindCycle returns one directed cycle as a node sequence
// [v0, v1, ..., vk] with edges v0->v1->...->vk->v0, or nil if the graph is
// acyclic. It is used by the dedup partitioner to locate partitions that
// must be dissolved.
func (g *Graph) FindCycle() []NodeID {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current DFS path
		black = 2 // finished
	)
	n := g.NumNodes()
	color := make([]byte, n)
	parent := make([]NodeID, n)
	for i := range parent {
		parent[i] = -1
	}

	// Iterative DFS; a gray->gray edge closes a cycle.
	type frame struct {
		node NodeID
		next int
	}
	var stack []frame
	for s := 0; s < n; s++ {
		if color[s] != white {
			continue
		}
		stack = append(stack[:0], frame{NodeID(s), 0})
		color[s] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.out[f.node]) {
				v := g.out[f.node][f.next]
				f.next++
				switch color[v] {
				case white:
					color[v] = gray
					parent[v] = f.node
					stack = append(stack, frame{v, 0})
				case gray:
					// Cycle: walk parents from f.node back to v.
					cyc := []NodeID{v}
					for u := f.node; u != v; u = parent[u] {
						cyc = append(cyc, u)
					}
					// Reverse so edges follow cycle order.
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// nodeHeap is a simple binary min-heap of node IDs.
type nodeHeap []NodeID

func (h *nodeHeap) push(v NodeID) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *nodeHeap) pop() NodeID {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s[l] < s[smallest] {
			smallest = l
		}
		if r < len(s) && s[r] < s[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
