package partition

import "dedupsim/internal/graph"

// refMerger is the map-based Merger that the slice-based one replaced,
// kept only as a reference for FuzzMergerEquivalence: adjacency sets are
// Go maps, so iteration order is random and only the set semantics can
// make answers agree.
type refMerger struct {
	d      *dsu
	out    []map[int32]struct{} // adjacency, valid at representatives
	in     []map[int32]struct{}
	weight []int64 // node weight per representative
	frozen []bool
	// budget bounds the DFS of each indirect-path query; when exhausted
	// the query conservatively reports "path exists" (merge refused),
	// preserving correctness at the cost of a possibly missed merge.
	budget int

	visited []int32
	stamp   int32
	stack   []int32
}

// newRefMerger mirrors newMerger.
func newRefMerger(q *graph.Graph, weights []int64, frozen []bool, budget int) *refMerger {
	n := q.NumNodes()
	m := &refMerger{
		d:       newDSU(n),
		out:     make([]map[int32]struct{}, n),
		in:      make([]map[int32]struct{}, n),
		weight:  make([]int64, n),
		frozen:  make([]bool, n),
		budget:  budget,
		visited: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		m.out[v] = make(map[int32]struct{}, q.OutDegree(int32(v)))
		m.in[v] = make(map[int32]struct{}, q.InDegree(int32(v)))
		for _, w := range q.Succs(int32(v)) {
			m.out[v][w] = struct{}{}
		}
		for _, w := range q.Preds(int32(v)) {
			m.in[v][w] = struct{}{}
		}
		if weights != nil {
			m.weight[v] = weights[v]
		} else {
			m.weight[v] = 1
		}
		if frozen != nil {
			m.frozen[v] = frozen[v]
		}
	}
	return m
}

// Rep returns the current representative of part p.
func (m *refMerger) Rep(p int32) int32 { return m.d.find(p) }

// Weight returns the accumulated node weight of p's group.
func (m *refMerger) Weight(p int32) int64 { return m.weight[m.d.find(p)] }

// Frozen reports whether p's group refuses merges.
func (m *refMerger) Frozen(p int32) bool { return m.frozen[m.d.find(p)] }

// hasIndirectPath reports whether the evolving quotient has a path from
// rep a to rep b through at least one intermediate group. An exhausted
// DFS budget reports true (conservative).
func (m *refMerger) hasIndirectPath(a, b int32) bool {
	m.stamp++
	m.stack = m.stack[:0]
	m.visited[a] = m.stamp
	visits := 0
	for s := range m.out[a] {
		rs := m.d.find(s)
		if rs == b || rs == a || m.visited[rs] == m.stamp {
			continue
		}
		m.visited[rs] = m.stamp
		m.stack = append(m.stack, rs)
	}
	for len(m.stack) > 0 {
		u := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		for s := range m.out[u] {
			// The budget counts edge scans, not nodes, so hub groups with
			// huge fan-out (e.g. frozen stamped supernodes in the dedup
			// remainder) cannot blow up a single query.
			if visits++; visits > m.budget {
				return true
			}
			rs := m.d.find(s)
			if rs == b {
				return true
			}
			if rs == u || m.visited[rs] == m.stamp {
				continue
			}
			m.visited[rs] = m.stamp
			m.stack = append(m.stack, rs)
		}
	}
	return false
}

// CanMerge reports whether merging the groups of a and b is currently
// safe under Theorem 5.1 and both are unfrozen.
func (m *refMerger) CanMerge(a, b int32) bool {
	ra, rb := m.d.find(a), m.d.find(b)
	if ra == rb {
		return false
	}
	if m.frozen[ra] || m.frozen[rb] {
		return false
	}
	return !m.hasIndirectPath(ra, rb) && !m.hasIndirectPath(rb, ra)
}

// Merge unconditionally merges the groups of a and b, canonicalizing the
// merged adjacency. Callers must have established safety via CanMerge.
func (m *refMerger) Merge(a, b int32) int32 {
	ra, rb := m.d.find(a), m.d.find(b)
	if ra == rb {
		return ra
	}
	// Keep the set-union cheap: fold the smaller adjacency into the larger.
	if len(m.out[ra])+len(m.in[ra]) < len(m.out[rb])+len(m.in[rb]) {
		ra, rb = rb, ra
	}
	r := m.d.union(ra, rb)
	if r != ra {
		// union-by-size may pick the other representative; move data.
		ra, rb = rb, ra
	}
	for s := range m.out[rb] {
		rs := m.d.find(s)
		if rs != r {
			m.out[r][rs] = struct{}{}
		}
	}
	for s := range m.in[rb] {
		rs := m.d.find(s)
		if rs != r {
			m.in[r][rs] = struct{}{}
		}
	}
	m.out[rb], m.in[rb] = nil, nil
	m.weight[r] = m.weight[ra] + m.weight[rb]
	m.frozen[r] = m.frozen[ra] || m.frozen[rb]
	// Drop any self-reference created by the contraction.
	delete(m.out[r], ra)
	delete(m.out[r], rb)
	delete(m.in[r], ra)
	delete(m.in[r], rb)
	return r
}

// TryMerge merges a and b if safe; it reports whether it merged.
func (m *refMerger) TryMerge(a, b int32) bool {
	if !m.CanMerge(a, b) {
		return false
	}
	m.Merge(a, b)
	return true
}

// Assignment compresses the merge state into a dense assignment over the
// original part IDs.
func (m *refMerger) Assignment() ([]int32, int) { return m.d.compress() }
