// Package partition implements the acyclic circuit partitioner used by
// both the baseline (ESSENT-style) flow and the deduplication flow. A
// partitioning groups the nodes of a scheduling DAG into partitions whose
// quotient graph is itself acyclic, so a full-cycle simulator can evaluate
// each partition exactly once per simulated cycle (paper Section 2.5).
//
// The partitioner coarsens bottom-up in four provably safe phases:
//
//  1. Sole-successor contraction: a partition whose only outgoing edge
//     leads to q is merged into q. En-masse application cannot create a
//     cycle (only the group's sink has external out-edges).
//  2. Sole-predecessor contraction: the dual, for fan-out trees.
//  3. General edge merging with the Herrmann/Beamer safe-merge rule
//     (Theorem 5.1): merge endpoints of an edge only when no indirect
//     path connects them, checked incrementally on the evolving quotient
//     so concurrent merges cannot conspire to form a cycle.
//  4. Sibling-sink packing: the sink successors of each parent are
//     packed into groups up to the size cap. A group of sinks has no
//     out-edge, so no cycle can pass through it, and no path query is
//     needed. Phases 1-3 merge only along quotient edges, so without
//     this phase most partitions would be small sinks that share a
//     parent but never touch.
//
// All phases respect a maximum partition size.
package partition

// dsu is a union-find structure over dense int32 IDs with union by size.
type dsu struct {
	parent []int32
	size   []int32
}

func newDSU(n int) *dsu {
	d := &dsu{parent: make([]int32, n), size: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// find returns the representative of x with path halving.
func (d *dsu) find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// union merges the sets of a and b and returns the surviving
// representative. a and b may be any members.
func (d *dsu) union(a, b int32) int32 {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return ra
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return ra
}

// compress produces a dense assignment: assign[v] in [0, numGroups), with
// group IDs ordered by smallest member.
func (d *dsu) compress() (assign []int32, numGroups int) {
	n := len(d.parent)
	assign = make([]int32, n)
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	next := int32(0)
	for v := 0; v < n; v++ {
		r := d.find(int32(v))
		if remap[r] == -1 {
			remap[r] = next
			next++
		}
		assign[v] = remap[r]
	}
	return assign, int(next)
}
