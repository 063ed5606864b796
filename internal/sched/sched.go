// Package sched produces partition execution schedules for the full-cycle
// simulator. A schedule is a permutation of the partitions that respects
// every dependency of the (acyclic) partition quotient graph, so each
// partition is evaluated exactly once per simulated cycle.
//
// Two schedulers are provided:
//
//   - Baseline: a deterministic topological order (what ESSENT does).
//   - LocalityAware: the paper's Section 5.2 optimization. Partitions
//     belonging to the same shared-code class are consolidated into super
//     partitions when Theorem 5.1 allows, the consolidated graph is
//     topologically sorted, and the super partitions are disassembled in
//     place — yielding a legal order in which activations of the same
//     kernel run back-to-back. That slashes instruction-cache and
//     branch-predictor reuse distance, which is where the speedup of
//     deduplication actually comes from (paper Table 4).
package sched

import (
	"fmt"

	"dedupsim/internal/graph"
	"dedupsim/internal/partition"
)

// Schedule is an execution order over partition IDs.
type Schedule struct {
	// Order lists every partition exactly once, dependency-respecting.
	Order []int32
}

// Baseline returns the deterministic topological order of the quotient.
func Baseline(q *graph.Graph) (*Schedule, error) {
	order, err := q.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	return &Schedule{Order: order}, nil
}

// LocalityAware builds a schedule that clusters same-class partitions.
// class[p] is the shared-code class of partition p or -1 (unique code);
// partitions with class -1 are never consolidated. The result is always a
// legal topological order of q.
func LocalityAware(q *graph.Graph, class []int32) (*Schedule, error) {
	if len(class) != q.NumNodes() {
		return nil, fmt.Errorf("sched: class length %d != %d partitions", len(class), q.NumNodes())
	}
	baseOrder, err := q.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	basePos := make([]int32, q.NumNodes())
	for i, p := range baseOrder {
		basePos[p] = int32(i)
	}

	// Step 1: consolidation. Same-class partitions merge into super
	// partitions under the incremental safe-merge rule, so no sequence of
	// merges can create a cycle. Members are attempted in topological
	// order, which tends to consolidate instance 0..k-1 cleanly.
	numClasses := int32(0)
	for _, cl := range class {
		numClasses = max(numClasses, cl+1)
	}
	byClass := make([][]int32, numClasses)
	for _, p := range baseOrder {
		if cl := class[p]; cl >= 0 {
			byClass[cl] = append(byClass[cl], p)
		}
	}
	m := partition.NewMerger(q, nil, nil)
	for _, members := range byClass {
		if len(members) == 0 {
			continue
		}
		anchor := members[0]
		for _, p := range members[1:] {
			m.TryMerge(anchor, p)
			anchor = m.Rep(anchor)
		}
	}

	// Step 2: topological sort of the consolidated graph.
	assign, parts := m.Assignment()
	cons := graph.Quotient(q, assign, parts)
	consOrder, err := cons.TopoSort()
	if err != nil {
		// Cannot happen: safe merges preserve acyclicity.
		return nil, fmt.Errorf("sched: consolidation broke acyclicity: %w", err)
	}

	// Step 3: disassembly. Expand each super partition into its member
	// partitions, ordered by their baseline topological position so any
	// direct edges between members are still respected.
	members := graph.GroupMembers(assign, parts)
	for _, ms := range members {
		sortByPos(ms, basePos)
	}
	order := make([]int32, 0, q.NumNodes())
	for _, sp := range consOrder {
		order = append(order, members[sp]...)
	}
	return &Schedule{Order: order}, nil
}

// Validate checks that the schedule is a dependency-respecting permutation
// of q's partitions.
func Validate(q *graph.Graph, s *Schedule) error {
	n := q.NumNodes()
	if len(s.Order) != n {
		return fmt.Errorf("sched: order has %d entries for %d partitions", len(s.Order), n)
	}
	pos := make([]int32, n)
	seen := make([]bool, n)
	for i, p := range s.Order {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("sched: partition %d out of range", p)
		}
		if seen[p] {
			return fmt.Errorf("sched: partition %d scheduled twice", p)
		}
		seen[p] = true
		pos[p] = int32(i)
	}
	for u := 0; u < n; u++ {
		for _, v := range q.Succs(int32(u)) {
			if pos[u] >= pos[v] {
				return fmt.Errorf("sched: edge %d->%d violated (positions %d >= %d)", u, v, pos[u], pos[v])
			}
		}
	}
	return nil
}

// ReuseStats measures how tightly a schedule clusters same-class
// activations: for each class with >= 2 members, the distance in schedule
// slots between consecutive members, aggregated over all classes. Lower
// mean distance means better temporal code locality.
type ReuseStats struct {
	// Pairs is the number of consecutive same-class pairs measured.
	Pairs int
	// MeanDistance is the average slot distance between consecutive
	// same-class activations (1.0 = perfectly back-to-back).
	MeanDistance float64
	// MaxDistance is the worst observed distance.
	MaxDistance int
	// BackToBack counts pairs at distance exactly 1.
	BackToBack int
}

// Reuse computes ReuseStats for a schedule under the given class labels.
func Reuse(s *Schedule, class []int32) ReuseStats {
	last := map[int32]int{}
	var st ReuseStats
	var sum int
	for i, p := range s.Order {
		cl := class[p]
		if cl < 0 {
			continue
		}
		if j, ok := last[cl]; ok {
			d := i - j
			st.Pairs++
			sum += d
			if d > st.MaxDistance {
				st.MaxDistance = d
			}
			if d == 1 {
				st.BackToBack++
			}
		}
		last[cl] = i
	}
	if st.Pairs > 0 {
		st.MeanDistance = float64(sum) / float64(st.Pairs)
	}
	return st
}

func sortByPos(s []int32, pos []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && pos[s[j]] < pos[s[j-1]]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
