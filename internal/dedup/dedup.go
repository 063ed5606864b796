// Package dedup implements the paper's contribution: coarse-grained
// circuit deduplication for RTL simulation (Section 4). Given an
// elaborated circuit, it
//
//  1. selects the replicated module with the greatest benefit
//     (instances x size),
//  2. verifies that the instances are structurally isomorphic,
//  3. acyclically partitions ONE instance as a template (Fig. 7a),
//  4. dissolves template partitions on the instance boundary — the only
//     ones whose differing external context can close a cycle (Fig. 7b),
//  5. stamps the surviving template partitions onto every instance
//     (Fig. 7c), iteratively dissolving any residual cycle-forming
//     partitions,
//  6. partitions the remaining free nodes around the frozen stamped
//     partitions (Fig. 7d).
//
// The result is an acyclic partitioning in which corresponding partitions
// across instances are marked as members of a shared *class*: the code
// generator emits one kernel per class and reuses it for every instance,
// which is what shrinks the simulator's cache footprint.
package dedup

import (
	"fmt"
	"sort"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/graph"
	"dedupsim/internal/partition"
)

// Choice is the replicated module selected for deduplication.
type Choice struct {
	// Module is the selected module name.
	Module string
	// Roots are the instance-tree indices of each instance.
	Roots []int32
	// NodeSets[i] lists the nodes owned by instance i's subtree, in
	// ascending ID order. All sets have equal length; position k is the
	// structural correspondence used for template stamping.
	NodeSets [][]graph.NodeID
	// Benefit = len(Roots) * len(NodeSets[0]).
	Benefit int
}

// SelectModule picks the module with maximum benefit (instances x subtree
// size) among modules instantiated at least twice, mirroring the paper's
// selection rule (Section 4). It returns nil when no module repeats.
func SelectModule(c *circuit.Circuit) *Choice {
	size := subtreeSizes(c)
	var best *Choice
	for module, rs := range rootsByModule(c) {
		if len(rs) < 2 {
			continue
		}
		benefit := len(rs) * size[rs[0]]
		if best == nil || benefit > best.Benefit ||
			(benefit == best.Benefit && module < best.Module) {
			best = &Choice{Module: module, Roots: rs, Benefit: benefit}
		}
	}
	if best == nil {
		return nil
	}
	best.NodeSets = nodeSets(c, best.Roots, size)
	return best
}

// SelectModules returns every eligible repeated module in descending
// benefit order. A module is skipped when its instances sit inside the
// subtree of a higher-benefit choice (nested replication, Figure 6c, is
// not deduplicated).
func SelectModules(c *circuit.Circuit) []*Choice {
	size := subtreeSizes(c)
	subtrees := c.InstanceSubtrees()
	var cands []*Choice
	for module, rs := range rootsByModule(c) {
		if len(rs) >= 2 {
			cands = append(cands, &Choice{Module: module, Roots: rs, Benefit: len(rs) * size[rs[0]]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Benefit != cands[j].Benefit {
			return cands[i].Benefit > cands[j].Benefit
		}
		return cands[i].Module < cands[j].Module
	})

	claimed := make([]bool, len(c.Instances))
	var out []*Choice
	var roots []int32
	for _, ch := range cands {
		overlap := false
		for _, r := range ch.Roots {
			for _, inst := range subtrees[r] {
				overlap = overlap || claimed[inst]
			}
		}
		if overlap {
			continue
		}
		for _, r := range ch.Roots {
			for _, inst := range subtrees[r] {
				claimed[inst] = true
			}
		}
		out = append(out, ch)
		roots = append(roots, ch.Roots...)
	}
	sets := nodeSets(c, roots, size)
	for _, ch := range out {
		ch.NodeSets, sets = sets[:len(ch.Roots)], sets[len(ch.Roots):]
	}
	return out
}

// rootsByModule lists each module's instances (excluding the top) in
// instance-tree order.
func rootsByModule(c *circuit.Circuit) map[string][]int32 {
	roots := map[string][]int32{}
	for i := 1; i < len(c.Instances); i++ {
		m := c.Instances[i].Module
		roots[m] = append(roots[m], int32(i))
	}
	return roots
}

// subtreeSizes returns the node count of every instance's subtree: a
// per-instance count array accumulated bottom-up (instances are ordered
// parent before child).
func subtreeSizes(c *circuit.Circuit) []int {
	size := make([]int, len(c.Instances))
	for _, i := range c.Inst {
		size[i]++
	}
	for i := len(c.Instances) - 1; i > 0; i-- {
		size[c.Instances[i].Parent] += size[i]
	}
	return size
}

// nodeSets returns the nodes of each root's subtree in ascending ID order,
// filled by one ascending scan of c.Inst. The roots' subtrees must be
// disjoint.
func nodeSets(c *circuit.Circuit, roots []int32, size []int) [][]graph.NodeID {
	owner := filled(len(c.Instances), -1) // index into roots, or -1
	for k, r := range roots {
		owner[r] = int32(k)
	}
	for i := 1; i < len(c.Instances); i++ {
		if owner[i] == -1 {
			owner[i] = owner[c.Instances[i].Parent]
		}
	}
	sets := make([][]graph.NodeID, len(roots))
	for k, r := range roots {
		sets[k] = make([]graph.NodeID, 0, size[r])
	}
	for v, i := range c.Inst {
		if k := owner[i]; k >= 0 {
			sets[k] = append(sets[k], graph.NodeID(v))
		}
	}
	return sets
}

// VerifyIsomorphism checks that every instance in the choice is
// structurally identical to instance 0 under the positional
// correspondence: matching ops, widths, constants, internal argument
// wiring, and a consistent per-instance memory mapping. It returns the
// indices (into ch.Roots) of the instances that verify, always including
// 0. Instances that fail are excluded from deduplication rather than
// miscompiled.
func VerifyIsomorphism(c *circuit.Circuit, ch *Choice) []int {
	if len(ch.Roots) == 0 {
		return nil
	}
	vf := &verifier{
		c:        c,
		tmpl:     ch.NodeSets[0],
		localIdx: filled(c.NumNodes(), -1),
		pos:      filled(c.NumNodes(), -1),
		memMap:   make([]int32, len(c.Mems)),
		memRev:   make([]int32, len(c.Mems)),
	}
	for k, v := range vf.tmpl {
		vf.localIdx[v] = int32(k)
	}
	ok := []int{0}
	for i := 1; i < len(ch.NodeSets); i++ {
		if vf.verify(ch.NodeSets[i]) {
			ok = append(ok, i)
		}
	}
	return ok
}

// verifier holds the dense scratch state of VerifyIsomorphism, reused
// across instances: localIdx[v] / pos[v] is v's position in the template /
// the instance under test (-1 outside), and memMap / memRev pair template
// and instance memories (-1 unpaired).
type verifier struct {
	c              *circuit.Circuit
	tmpl           []graph.NodeID
	localIdx, pos  []int32
	memMap, memRev []int32
}

func (vf *verifier) verify(set []graph.NodeID) bool {
	if len(set) != len(vf.tmpl) {
		return false
	}
	for k, v := range set {
		vf.pos[v] = int32(k)
	}
	defer func() {
		for _, v := range set {
			vf.pos[v] = -1
		}
	}()
	fill(vf.memMap, -1)
	fill(vf.memRev, -1)
	c := vf.c
	for k, tv := range vf.tmpl {
		iv := set[k]
		if c.Ops[tv] != c.Ops[iv] || c.Width[tv] != c.Width[iv] || c.Vals[tv] != c.Vals[iv] {
			return false
		}
		ta, ia := c.Args[tv], c.Args[iv]
		if len(ta) != len(ia) {
			return false
		}
		for j := range ta {
			tk, ik := vf.localIdx[ta[j]], vf.pos[ia[j]]
			if tk >= 0 {
				// Internal argument: must map to the corresponding node.
				if ik != tk {
					return false
				}
			} else if ik >= 0 {
				// Template reads externally but the instance internally.
				return false
			}
		}
		if tm := c.MemOf[tv]; tm >= 0 {
			im := c.MemOf[iv]
			if im < 0 {
				return false
			}
			if prev := vf.memMap[tm]; prev >= 0 && prev != im {
				return false
			}
			if prev := vf.memRev[im]; prev >= 0 && prev != tm {
				return false
			}
			vf.memMap[tm] = im
			vf.memRev[im] = tm
		}
	}
	return true
}

func filled(n int, x int32) []int32 {
	s := make([]int32, n)
	fill(s, x)
	return s
}

func fill(s []int32, x int32) {
	for i := range s {
		s[i] = x
	}
}

// Options tunes the deduplication flow.
type Options struct {
	// Partition configures the acyclic partitioner (template and
	// remainder).
	Partition partition.Options
	// MultiModule extends deduplication beyond the single best module to
	// every eligible repeated module (the paper's Figure 6b "multiple
	// sets" extension; the paper itself dedups only one). Nested
	// replication inside an already-deduplicated module is still skipped
	// (Figure 6c remains future work).
	MultiModule bool
}

// maxCycleRounds bounds the iterative dissolve-on-cycle loop; each round
// removes at least one template partition, so the loop always terminates,
// but a bound keeps pathological inputs fast.
const maxCycleRounds = 64

// Stats summarizes what deduplication achieved on a design (Table 2).
// With Options.MultiModule, the scalar fields describe the primary
// (highest-benefit) module and the reductions aggregate over all of them.
type Stats struct {
	TotalNodes   int
	Module       string // chosen module ("" when nothing repeats)
	Instances    int    // verified instance count
	InstanceSize int    // nodes per instance
	// Modules lists every module actually deduplicated (one entry unless
	// Options.MultiModule).
	Modules []string
	// IdealReduction is the node fraction removable if every node of all
	// duplicated instances beyond the first could be shared.
	IdealReduction float64
	// RealReduction is the fraction actually shared after dissolving
	// boundary and cycle-forming partitions.
	RealReduction float64
	// KeptNodes is the per-instance node count inside shared partitions.
	KeptNodes int
	// TemplateParts / KeptParts count template partitions before/after
	// dissolution.
	TemplateParts      int
	KeptParts          int
	DissolvedBoundary  int
	DissolvedForCycles int
}

// Timing breaks down where partitioning time went (Fig. 11). The stage
// fields cover all of Deduplicate but a few bookkeeping loops, so their
// sum stays just under Total.
type Timing struct {
	Select            time.Duration // module selection and node sets
	Verify            time.Duration // isomorphism check
	PartitionInstance time.Duration // Fig. 7a
	Dissolve          time.Duration // Fig. 7b: boundary + cycle removal
	Stamp             time.Duration // Fig. 7c
	Remainder         time.Duration // Fig. 7d
	Classes           time.Duration // class and member construction
	Total             time.Duration
}

// Result is a deduplicated acyclic partitioning.
type Result struct {
	// Part is the final partitioning of the full scheduling graph.
	Part *partition.Result
	// Class[p] is the shared-code class of partition p, or -1 when p has
	// unique code. Partitions of one class are structurally identical
	// across instances and can share a compiled kernel.
	Class []int32
	// NumClasses counts distinct shared classes.
	NumClasses int
	// InstanceOf[p] is the index (into Instances order 0..k-1) of the
	// deduplicated instance owning partition p, or -1.
	InstanceOf []int32
	// Members[p] lists partition p's nodes. For shared partitions the
	// order is canonical: position j corresponds across all partitions of
	// the class, which is what lets the code generator reuse one kernel
	// body with per-instance state tables.
	Members [][]graph.NodeID

	Stats  Stats
	Timing Timing
}

// Deduplicate runs the full flow on circuit c with scheduling graph g
// (normally c.SchedGraph(), passed in so callers can reuse it).
func Deduplicate(c *circuit.Circuit, g *graph.Graph, opt Options) (*Result, error) {
	start := time.Now()

	var choices []*Choice
	if opt.MultiModule {
		choices = SelectModules(c)
	} else if ch := SelectModule(c); ch != nil {
		choices = []*Choice{ch}
	}
	timing := Timing{Select: time.Since(start)}

	// Verify each choice's instances; drop what cannot be proven
	// isomorphic (we never miscompile a near-duplicate).
	vStart := time.Now()
	var plans []*plan
	for _, ch := range choices {
		verified := VerifyIsomorphism(c, ch)
		if len(verified) < 2 {
			continue
		}
		pl := &plan{choice: ch}
		for _, vi := range verified {
			pl.sets = append(pl.sets, ch.NodeSets[vi])
		}
		plans = append(plans, pl)
	}
	timing.Verify = time.Since(vStart)
	if len(plans) == 0 {
		// Nothing to deduplicate: fall back to the baseline partitioner.
		rStart := time.Now()
		res, err := partition.Partition(g, opt.Partition)
		if err != nil {
			return nil, err
		}
		timing.Remainder = time.Since(rStart)
		r := newUnsharedResult(res)
		r.Stats.TotalNodes = c.NumNodes()
		r.Timing = timing
		r.Timing.Total = time.Since(start)
		return r, nil
	}

	stats := Stats{
		TotalNodes:   c.NumNodes(),
		Module:       plans[0].choice.Module,
		Instances:    len(plans[0].sets),
		InstanceSize: len(plans[0].sets[0]),
	}
	for _, pl := range plans {
		stats.Modules = append(stats.Modules, pl.choice.Module)
		stats.IdealReduction += float64((len(pl.sets)-1)*len(pl.sets[0])) / float64(c.NumNodes())
	}

	// Fig. 7a: partition the first verified instance of each plan as its
	// template.
	tStart := time.Now()
	for _, pl := range plans {
		sub, _ := graph.Induced(g, pl.sets[0])
		tRes, err := partition.Partition(sub, opt.Partition)
		if err != nil {
			return nil, fmt.Errorf("dedup: template partitioning (%s): %w", pl.choice.Module, err)
		}
		pl.tRes = tRes
	}
	timing.PartitionInstance = time.Since(tStart)
	stats.TemplateParts = plans[0].tRes.NumParts

	// Fig. 7b: dissolve boundary template partitions. A template
	// partition is boundary if, in ANY instance, one of its corresponding
	// nodes has a scheduling edge crossing that instance's boundary.
	dStart := time.Now()
	// owner[v] identifies the (plan, instance) that owns node v, packed as
	// planIdx<<16 | instIdx, or -1. Plans claim disjoint node sets.
	owner := filled(c.NumNodes(), -1)
	for pi, pl := range plans {
		for i, set := range pl.sets {
			tag := int32(pi)<<16 | int32(i)
			for _, v := range set {
				owner[v] = tag
			}
		}
	}
	for pi, pl := range plans {
		boundary := make([]bool, pl.tRes.NumParts)
		for i, set := range pl.sets {
			tag := int32(pi)<<16 | int32(i)
			for p, v := range set {
				tp := pl.tRes.Assign[p]
				if boundary[tp] {
					continue
				}
				cross := false
				for _, sc := range g.Succs(v) {
					if owner[sc] != tag {
						cross = true
						break
					}
				}
				if !cross {
					for _, pr := range g.Preds(v) {
						if owner[pr] != tag {
							cross = true
							break
						}
					}
				}
				if cross {
					boundary[tp] = true
				}
			}
		}
		pl.kept = make([]bool, pl.tRes.NumParts)
		for tp := range pl.kept {
			pl.kept[tp] = !boundary[tp]
			if pl.kept[tp] {
				pl.keptCount++
			} else if pi == 0 {
				stats.DissolvedBoundary++
			}
		}
	}
	timing.Dissolve = time.Since(dStart)

	// Fig. 7c: stamp kept template partitions onto every instance, then
	// iteratively dissolve template partitions involved in residual
	// cycles. Dissolution is template-wide so classes stay aligned. The
	// condensation built for the cycle check is reused by the remainder
	// partitioner below.
	sStart := time.Now()
	var seed, condAssign []int32
	var groupPlan, groupTpl []int32
	var groups int
	var cond *graph.Graph
	for round := 0; ; round++ {
		seed, groupPlan, groupTpl = stampSeed(c.NumNodes(), plans)
		groups = len(groupPlan)
		cond, condAssign = condense(g, seed, groups)
		cyc := cond.FindCycle()
		if cyc == nil {
			break
		}
		if round >= maxCycleRounds {
			return nil, fmt.Errorf("dedup: cycle persisted after %d dissolve rounds", round)
		}
		dissolved := false
		for _, grp := range cyc {
			if int(grp) >= groups {
				continue // a free node, not a stamped partition
			}
			pl := plans[groupPlan[grp]]
			tp := groupTpl[grp]
			if pl.kept[tp] {
				pl.kept[tp] = false
				pl.keptCount--
				if groupPlan[grp] == 0 {
					stats.DissolvedForCycles++
				}
				dissolved = true
			}
		}
		if !dissolved {
			// A cycle purely among free nodes would mean g itself is
			// cyclic, which SchedGraph guarantees against.
			return nil, fmt.Errorf("dedup: cycle without stamped partitions; input graph cyclic?")
		}
	}
	timing.Stamp = time.Since(sStart)
	stats.KeptParts = plans[0].keptCount

	totalKept := 0
	for _, pl := range plans {
		totalKept += pl.keptCount
	}
	if totalKept == 0 {
		// Everything dissolved: deduplication degenerates to the baseline
		// (paper Section 4.2's worst case).
		rStart := time.Now()
		res, err := partition.Partition(g, opt.Partition)
		if err != nil {
			return nil, err
		}
		timing.Remainder = time.Since(rStart)
		r := newUnsharedResult(res)
		r.Stats = stats
		r.Timing = timing
		r.Timing.Total = time.Since(start)
		return r, nil
	}

	// Fig. 7d: partition the remainder around the frozen stamped groups.
	// Work on the condensation (one supernode per stamped group, one node
	// per free node): internal edges of stamped partitions vanish, so the
	// remainder pass costs ~the free fraction of the design instead of
	// re-walking everything. FindCycle above proved cond acyclic.
	rStart := time.Now()
	frozen := make([]bool, cond.NumNodes())
	for v := 0; v < groups; v++ {
		frozen[v] = true
	}
	condRes, err := partition.PartitionFrozen(cond, frozen, opt.Partition)
	if err != nil {
		return nil, fmt.Errorf("dedup: remainder partitioning: %w", err)
	}
	// Map condensation partitions back onto circuit nodes.
	final := make([]int32, c.NumNodes())
	weights := make([]int64, condRes.NumParts)
	for v := 0; v < c.NumNodes(); v++ {
		final[v] = condRes.Assign[condAssign[v]]
		weights[final[v]]++
	}
	res := &partition.Result{Assign: final, NumParts: condRes.NumParts, Weights: weights}
	timing.Remainder = time.Since(rStart)

	// Build classes. Class IDs are dense and globally unique across plans.
	// Member order needs no rework: a stamped partition holds exactly one
	// instance's nodes of one template partition, and each instance set
	// is ascending, so ascending node order (newUnsharedResult's) is
	// template-position order and corresponds across the class.
	cStart := time.Now()
	r := newUnsharedResult(res)
	classBase := int32(0)
	for pi, pl := range plans {
		keptIndex, kc := pl.keptIndex()
		keptNodes := 0
		for _, tp := range pl.tRes.Assign {
			if pl.kept[tp] {
				keptNodes++
			}
		}
		if pi == 0 {
			stats.KeptNodes = keptNodes
		}
		stats.RealReduction += float64((len(pl.sets)-1)*keptNodes) / float64(c.NumNodes())

		for i, set := range pl.sets {
			for p, v := range set {
				if j := keptIndex[pl.tRes.Assign[p]]; j >= 0 {
					pid := res.Assign[v]
					r.Class[pid] = classBase + j
					r.InstanceOf[pid] = int32(i)
				}
			}
		}
		classBase += kc
	}
	r.NumClasses = int(classBase)
	r.Stats = stats
	r.Timing = timing
	r.Timing.Classes = time.Since(cStart)
	r.Timing.Total = time.Since(start)
	return r, nil
}

// plan carries the per-module state of the deduplication flow.
type plan struct {
	choice    *Choice
	sets      [][]graph.NodeID
	tRes      *partition.Result
	kept      []bool
	keptCount int
}

// keptIndex numbers the kept template partitions densely in template
// order (-1 for dissolved ones) and returns the count.
func (pl *plan) keptIndex() ([]int32, int32) {
	idx := make([]int32, len(pl.kept))
	kc := int32(0)
	for tp, k := range pl.kept {
		if k {
			idx[tp] = kc
			kc++
		} else {
			idx[tp] = -1
		}
	}
	return idx, kc
}

// BaselineResult wraps a plain partitioning as a Result with no shared
// classes, for the simulator variants that bypass deduplication.
func BaselineResult(res *partition.Result) *Result {
	return newUnsharedResult(res)
}

// newUnsharedResult wraps a plain partitioning with no shared classes.
func newUnsharedResult(res *partition.Result) *Result {
	r := &Result{
		Part:       res,
		Class:      make([]int32, res.NumParts),
		InstanceOf: make([]int32, res.NumParts),
		Members:    res.Members(),
	}
	for i := range r.Class {
		r.Class[i] = -1
		r.InstanceOf[i] = -1
	}
	return r
}

// WithoutSharing returns a copy of r with all code sharing removed (every
// partition unique), preserving the partition shapes — the paper's PO
// (Partitioning Only) variant.
func (r *Result) WithoutSharing() *Result {
	c := newUnsharedResult(r.Part)
	c.Members = r.Members
	c.Stats = r.Stats
	c.Timing = r.Timing
	return c
}

// stampSeed builds the seeded assignment: nodes of kept template
// partitions stamped per instance across all plans, everything else free
// (-1). Group numbering is dense; groupPlan/groupTpl decode a group ID
// back to its plan and template partition for cycle-driven dissolution.
func stampSeed(numNodes int, plans []*plan) (seed, groupPlan, groupTpl []int32) {
	seed = filled(numNodes, -1)
	gid := int32(0)
	for pi, pl := range plans {
		keptIdx, kc := pl.keptIndex()
		base := gid
		for i, set := range pl.sets {
			instBase := base + int32(i)*kc
			for p, v := range set {
				if j := keptIdx[pl.tRes.Assign[p]]; j >= 0 {
					seed[v] = instBase + j
				}
			}
		}
		// Record the decode tables: instance-major, kept-index-minor.
		for i := 0; i < len(pl.sets); i++ {
			for tp, k := range pl.kept {
				if k {
					groupPlan = append(groupPlan, int32(pi))
					groupTpl = append(groupTpl, int32(tp))
				}
			}
			_ = i
		}
		gid = base + int32(len(pl.sets))*kc
	}
	return seed, groupPlan, groupTpl
}

// condense builds the quotient of (stamped groups + free singletons):
// group IDs < groups are stamped partitions, free nodes get IDs >= groups.
// It returns the condensation and the node -> condensation-node mapping.
func condense(g *graph.Graph, seed []int32, groups int) (*graph.Graph, []int32) {
	assign := make([]int32, len(seed))
	next := int32(groups)
	for v, s := range seed {
		if s >= 0 {
			assign[v] = s
		} else {
			assign[v] = next
			next++
		}
	}
	return graph.Quotient(g, assign, int(next)), assign
}
