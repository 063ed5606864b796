package partition

import "dedupsim/internal/graph"

// Merger maintains a dynamic quotient graph under partition merges and
// answers incremental safe-merge queries (Theorem 5.1). It is used by the
// partitioner's general-merge phase and by the locality-aware scheduler's
// consolidation step, both of which must guarantee that no sequence of
// individually-safe merges conspires to create a cycle — hence every check
// runs against the *evolving* quotient, not a snapshot. The partitioner's
// sink-packing phase then merges on the same live state without queries.
//
// Adjacency rows are sets kept in slices: a row holds no ID twice, and a
// merged row keeps the surviving representative's raw (possibly stale)
// IDs, adds the other side's IDs canonicalised, and drops only the two
// merged IDs themselves. The budgeted indirect-path query then does not
// depend on row order: if a path exists it reports true whether the
// budget or the target is hit first, and if none exists the scan covers
// every reachable edge. Partition output depends on these exact set sizes,
// so FuzzMergerEquivalence checks them against a map-based reference.
type Merger struct {
	d      *dsu
	out    [][]int32 // adjacency sets, valid at representatives
	in     [][]int32
	weight []int64 // node weight per representative
	frozen []bool
	// budget bounds the DFS of each indirect-path query (dfsBudget
	// outside tests); when exhausted the query conservatively reports
	// "path exists" (merge refused), preserving correctness at the cost
	// of a possibly missed merge.
	budget int

	// visited marks DFS nodes in hasIndirectPath and row members in
	// Merge's set union; each use takes a fresh stamp.
	visited []int32
	stamp   int32
	stack   []int32
}

// dfsBudget is the number of edge scans each safe-merge query may make.
const dfsBudget = 512

// NewMerger wraps a quotient graph whose parts carry the given node
// weights. frozen parts refuse all merges; frozen may be nil.
//
// Note on pruning: the merger's path queries cannot use topological-level
// pruning. A path in the EVOLVING quotient may pass through a merged
// group entering at a high-level member and leaving from a low-level one,
// so original-graph levels do not bound quotient paths. The DFS budget is
// the (conservative) cost control instead.
func NewMerger(q *graph.Graph, weights []int64, frozen []bool) *Merger {
	return newMerger(q, weights, frozen, dfsBudget)
}

// newMerger is NewMerger with an explicit DFS budget; tests use small
// budgets to reach the exhausted-budget path.
func newMerger(q *graph.Graph, weights []int64, frozen []bool, budget int) *Merger {
	n := q.NumNodes()
	m := &Merger{
		d:       newDSU(n),
		out:     make([][]int32, n),
		in:      make([][]int32, n),
		weight:  make([]int64, n),
		frozen:  make([]bool, n),
		budget:  budget,
		visited: make([]int32, n),
	}
	// Rows are carved from one backing array per direction, each capped
	// at its length so a growing row reallocates instead of overwriting
	// its neighbour.
	outFlat := make([]int32, 0, q.NumEdges())
	inFlat := make([]int32, 0, q.NumEdges())
	for v := 0; v < n; v++ {
		m.out[v], outFlat = m.carveSet(outFlat, q.Succs(int32(v)))
		m.in[v], inFlat = m.carveSet(inFlat, q.Preds(int32(v)))
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

// carveSet appends the distinct IDs of src to flat and returns them as a
// row capped at its own length, along with the extended flat array.
func (m *Merger) carveSet(flat, src []int32) (row, rest []int32) {
	start := len(flat)
	m.stamp++
	for _, x := range src {
		if m.visited[x] != m.stamp {
			m.visited[x] = m.stamp
			flat = append(flat, x)
		}
	}
	return flat[start:len(flat):len(flat)], flat
}

// Rep returns the current representative of part p.
func (m *Merger) Rep(p int32) int32 { return m.d.find(p) }

// Weight returns the accumulated node weight of p's group.
func (m *Merger) Weight(p int32) int64 { return m.weight[m.d.find(p)] }

// Frozen reports whether p's group refuses merges.
func (m *Merger) Frozen(p int32) bool { return m.frozen[m.d.find(p)] }

// hasIndirectPath reports whether the evolving quotient has a path from
// rep a to rep b through at least one intermediate group. An exhausted
// DFS budget reports true (conservative).
func (m *Merger) hasIndirectPath(a, b int32) bool {
	m.stamp++
	m.stack = m.stack[:0]
	m.visited[a] = m.stamp
	visits := 0
	for _, s := range m.out[a] {
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
		for _, s := range m.out[u] {
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
func (m *Merger) CanMerge(a, b int32) bool {
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
// merged adjacency. Callers must have established safety, via CanMerge
// or (sink packing) because neither group has an out-edge.
func (m *Merger) Merge(a, b int32) int32 {
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
	m.out[r] = m.unionRow(m.out[r], m.out[rb], r, rb)
	m.in[r] = m.unionRow(m.in[r], m.in[rb], r, rb)
	m.out[rb], m.in[rb] = nil, nil
	m.weight[r] = m.weight[ra] + m.weight[rb]
	m.frozen[r] = m.frozen[ra] || m.frozen[rb]
	return r
}

// unionRow folds the other side's row src into r's row dst in place: dst
// keeps its raw IDs except r and other themselves, and src's IDs join
// canonicalised, each at most once and never as r.
func (m *Merger) unionRow(dst, src []int32, r, other int32) []int32 {
	m.stamp++
	w := 0
	for _, x := range dst {
		if x == r || x == other {
			continue
		}
		m.visited[x] = m.stamp
		dst[w] = x
		w++
	}
	dst = dst[:w]
	for _, s := range src {
		if rs := m.d.find(s); rs != r && m.visited[rs] != m.stamp {
			m.visited[rs] = m.stamp
			dst = append(dst, rs)
		}
	}
	return dst
}

// TryMerge merges a and b if safe; it reports whether it merged.
func (m *Merger) TryMerge(a, b int32) bool {
	if !m.CanMerge(a, b) {
		return false
	}
	m.Merge(a, b)
	return true
}

// Assignment compresses the merge state into a dense assignment over the
// original part IDs.
func (m *Merger) Assignment() ([]int32, int) { return m.d.compress() }
