package graph

// Induced builds the subgraph induced by the given nodes: local node i
// corresponds to nodes[i], and only edges with both endpoints in the set
// survive. It returns the subgraph and the original-to-local mapping
// (length g.NumNodes(), -1 for nodes outside the set).
//
// The deduplication flow partitions the induced subgraph of a single
// module instance and reuses the result as a template for its replicas.
func Induced(g *Graph, nodes []NodeID) (*Graph, []int32) {
	toLocal := make([]int32, g.NumNodes())
	for i := range toLocal {
		toLocal[i] = -1
	}
	for i, v := range nodes {
		toLocal[v] = int32(i)
	}
	b := newCSR(len(nodes))
	for i, v := range nodes {
		for _, w := range g.out[v] {
			if lw := toLocal[w]; lw >= 0 {
				b.count(int32(i), lw)
			}
		}
	}
	b.alloc()
	for i, v := range nodes {
		for _, w := range g.out[v] {
			if lw := toLocal[w]; lw >= 0 {
				b.fill(int32(i), lw)
			}
		}
	}
	return b.graph(), toLocal
}
