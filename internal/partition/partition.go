package partition

import (
	"fmt"
	"math/bits"

	"dedupsim/internal/graph"
)

// Options tunes the partitioner.
type Options struct {
	// MaxSize caps the node count of a partition. Full-cycle simulators
	// tolerate imbalance (paper Section 4.4), so this is a soft knob for
	// code-size-per-kernel rather than a balance constraint. Default 48.
	MaxSize int
}

func (o Options) withDefaults() Options {
	if o.MaxSize <= 0 {
		o.MaxSize = 48
	}
	return o
}

// Result is an acyclic partitioning of a scheduling graph.
type Result struct {
	// Assign maps each node to its partition in [0, NumParts).
	Assign []int32
	// NumParts is the partition count.
	NumParts int
	// Weights is the node count of each partition.
	Weights []int64
}

// Quotient builds the partition graph of the result over g.
func (r *Result) Quotient(g *graph.Graph) *graph.Graph {
	return graph.Quotient(g, r.Assign, r.NumParts)
}

// Members returns the node lists per partition.
func (r *Result) Members() [][]graph.NodeID {
	return graph.GroupMembers(r.Assign, r.NumParts)
}

// Quality summarises a partitioning's shape. A full-cycle simulator pays
// a fixed cost per partition activation, so fewer, larger partitions
// run faster.
type Quality struct {
	MeanSize float64
	// SinkFrac is the share of partitions with no successor partition.
	SinkFrac float64
	// SizeHist[k] counts the partitions of 2^k to 2^(k+1)-1 nodes.
	SizeHist []int
}

// Quality measures r over the graph g it partitions.
func (r *Result) Quality(g *graph.Graph) Quality {
	var q Quality
	if r.NumParts == 0 {
		return q
	}
	q.MeanSize = float64(len(r.Assign)) / float64(r.NumParts)
	hasSucc := make([]bool, r.NumParts)
	for u, pu := range r.Assign {
		for _, v := range g.Succs(int32(u)) {
			if r.Assign[v] != pu {
				hasSucc[pu] = true
				break
			}
		}
	}
	sinks := 0
	for p, w := range r.Weights {
		if !hasSucc[p] {
			sinks++
		}
		k := bits.Len64(uint64(w)) - 1
		for len(q.SizeHist) <= k {
			q.SizeHist = append(q.SizeHist, 0)
		}
		q.SizeHist[k]++
	}
	q.SinkFrac = float64(sinks) / float64(r.NumParts)
	return q
}

// Partition produces an acyclic partitioning of g (which must be a DAG).
func Partition(g *graph.Graph, opt Options) (*Result, error) {
	return PartitionFrozen(g, nil, opt)
}

// PartitionFrozen partitions the DAG g around frozen nodes: frozen[v]
// keeps node v a singleton partition that never merges (frozen may be
// nil). The deduplication flow partitions its condensation this way,
// freezing one supernode per stamped template partition, so the remainder
// is partitioned around them (paper Fig. 7d). g must be acyclic; the
// dedup flow proves that with FindCycle on the same condensation.
func PartitionFrozen(g *graph.Graph, frozen []bool, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if frozen != nil && len(frozen) != n {
		return nil, fmt.Errorf("partition: frozen length %d != %d nodes", len(frozen), n)
	}
	d := newDSU(n)
	weight := make([]int64, n)
	for i := range weight {
		weight[i] = 1
	}
	frozenNode := frozen // read-only: frozen nodes never merge
	if frozenNode == nil {
		frozenNode = make([]bool, n)
	}

	maxW := int64(opt.MaxSize)

	// Phases 1+2: alternating sole-successor / sole-predecessor
	// contractions until fixpoint. Both are safe en masse (see package
	// comment), so each pass works off a quotient snapshot.
	for {
		merged := contractPass(g, d, weight, frozenNode, maxW, true)
		merged += contractPass(g, d, weight, frozenNode, maxW, false)
		if merged == 0 {
			break
		}
	}

	// Phase 3: general incremental merging with Theorem 5.1 checks.
	assign, parts := d.compress()
	q := graph.Quotient(g, assign, parts)
	w := make([]int64, parts)
	frozenPart := make([]bool, parts)
	for v := 0; v < n; v++ {
		r := d.find(int32(v))
		w[assign[v]] = weight[r]
		if frozenNode[r] {
			frozenPart[assign[v]] = true
		}
	}
	m := NewMerger(q, w, frozenPart)
	order, err := q.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("partition: quotient is cyclic: %w", err)
	}
	// One pass: with dfsBudget 512 a second pass merged nothing on any
	// bench design. Refused pairs are cached: a failed safety check can
	// only flip to safe if an intermediate group later merges into one
	// endpoint, so skipping repeats is conservative (never unsafe) and
	// saves the repeated DFS when a pair recurs within the pass.
	failed := map[uint64]bool{}
	pairKey := func(a, b int32) uint64 {
		if a > b {
			a, b = b, a
		}
		return uint64(uint32(a))<<32 | uint64(uint32(b))
	}
	for _, p := range order {
		rp := m.Rep(p)
		for _, s := range q.Succs(p) {
			rs := m.Rep(s)
			if rs == rp {
				continue
			}
			if m.Weight(rp)+m.Weight(rs) > maxW {
				continue
			}
			key := pairKey(rp, rs)
			if failed[key] {
				continue
			}
			if m.TryMerge(rp, rs) {
				rp = m.Rep(rp)
			} else {
				failed[key] = true
			}
		}
	}

	// Phase 4: pack sibling sinks (see package comment).
	mergeSinks(m, order, maxW)

	// Compose: node -> phase-1/2 partition -> phase-3/4 group.
	pAssign, pParts := m.Assignment()
	final := make([]int32, n)
	for v := 0; v < n; v++ {
		final[v] = pAssign[assign[v]]
	}
	weights := make([]int64, pParts)
	for v := 0; v < n; v++ {
		weights[final[v]]++
	}
	return &Result{Assign: final, NumParts: pParts, Weights: weights}, nil
}

// mergeSinks is phase 4. It visits each group of the merger's live
// quotient once, in the topological order of its first part, and packs
// the group's unfrozen sink successors first-fit into groups of at most
// maxW nodes. A successor may be a sink group formed at an earlier
// parent; it then joins this parent's packing as one item. First-fit
// leaves no two of a parent's sink successors that fit together: an item
// opens a new group only when it fits in no open one, and groups only
// grow afterwards. Merging sinks keeps them sinks, so the sink marks
// taken up front stay valid, and no merge needs a path query.
func mergeSinks(m *Merger, order []int32, maxW int64) {
	n := len(m.out)
	sink := make([]bool, n) // valid at representatives
	for v := range sink {
		r := int32(v)
		if m.d.find(r) != r || m.frozen[r] {
			continue
		}
		sink[r] = true
		for _, s := range m.out[r] {
			if m.d.find(s) != r {
				sink[r] = false
				break
			}
		}
	}
	visited := make([]bool, n) // parents already packed
	seen := make([]int32, n)   // parent stamp per sink representative
	var open []int32           // this parent's groups with room left
	for i, p := range order {
		rp := m.d.find(p)
		if visited[rp] || sink[rp] {
			continue
		}
		visited[rp] = true
		stamp := int32(i + 1)
		open = open[:0]
		for _, s := range m.out[rp] {
			rs := m.d.find(s)
			if !sink[rs] || seen[rs] == stamp {
				continue
			}
			seen[rs] = stamp
			w := m.weight[rs]
			placed := false
			for j, b := range open {
				if m.weight[b]+w > maxW {
					continue
				}
				r := m.Merge(b, rs)
				seen[r] = stamp
				if m.weight[r] == maxW {
					open = append(open[:j], open[j+1:]...)
				} else {
					open[j] = r
				}
				placed = true
				break
			}
			if !placed && w < maxW {
				open = append(open, rs)
			}
		}
	}
}

// contractPass performs one en-masse sole-successor (fwd) or
// sole-predecessor (!fwd) contraction pass over the current quotient and
// returns the number of merges applied. It reads the quotient straight off
// g under one compress() snapshot instead of building it: sole[p] is part
// p's only distinct successor (or predecessor), -1 if none, -2 if several.
func contractPass(g *graph.Graph, d *dsu, weight []int64, frozen []bool, maxW int64, fwd bool) int {
	assign, parts := d.compress()
	sole := make([]int32, parts)
	repNode := make([]int32, parts) // any member works for union
	for i := range sole {
		sole[i] = -1
		repNode[i] = -1
	}
	note := func(p, neigh int32) {
		if s := sole[p]; s == -1 {
			sole[p] = neigh
		} else if s != neigh {
			sole[p] = -2
		}
	}
	for u, pu := range assign {
		if repNode[pu] == -1 {
			repNode[pu] = int32(u)
		}
		if fwd && sole[pu] == -2 {
			continue
		}
		for _, v := range g.Succs(int32(u)) {
			if pv := assign[v]; pv != pu {
				if fwd {
					note(pu, pv)
				} else {
					note(pv, pu)
				}
			}
		}
	}
	merges := 0
	for p, s := range sole {
		if s < 0 {
			continue
		}
		a, b := repNode[p], repNode[s]
		ra, rb := d.find(a), d.find(b)
		if ra == rb || frozen[ra] || frozen[rb] {
			continue
		}
		if weight[ra]+weight[rb] > maxW {
			continue
		}
		r := d.union(ra, rb)
		weight[r] = weight[ra] + weight[rb]
		merges++
	}
	return merges
}
