package sim

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"dedupsim/internal/codegen"
)

// PartitionStats aggregates per-partition runtime behavior: how often
// each partition actually evaluated versus was skipped, and the modeled
// instruction cost it contributed. ESSENT's whole premise is that
// activity is unevenly distributed; this report makes the distribution
// visible and identifies the hotspots that deduplication turns into
// shared, cache-resident kernels.
type PartitionStats struct {
	numParts int
	executed []int64
	kernelOf []int32
	dynCost  []int64 // modeled instructions per execution, per partition
	cycles   int64
}

// NewPartitionStats attaches a statistics collector to a one-lane batch
// engine; it hooks the engine's activation hook, chaining any previous
// collector. The hook is read only by the one-lane path, so more lanes
// are an error.
func NewPartitionStats(b *BatchEngine) (*PartitionStats, error) {
	if b.Lanes() != 1 {
		return nil, fmt.Errorf("sim: partition stats need a one-lane engine, not %d lanes", b.Lanes())
	}
	p := b.Program()
	st := &PartitionStats{
		numParts: p.NumParts,
		executed: make([]int64, p.NumParts),
		kernelOf: make([]int32, p.NumParts),
		dynCost:  make([]int64, p.NumParts),
	}
	for i := range p.Activations {
		act := &p.Activations[i]
		st.kernelOf[act.Part] = act.Kernel
		st.dynCost[act.Part] = int64(p.Kernels[act.Kernel].DynInstrs)
	}
	prev := b.onAct
	b.onAct = func(actIdx int32) {
		st.executed[p.Activations[actIdx].Part]++
		if prev != nil {
			prev(actIdx)
		}
	}
	return st, nil
}

// Observe notes that a cycle completed (activity rates are per cycle).
func (st *PartitionStats) Observe() { st.cycles++ }

// ActivityRate returns the mean fraction of partitions evaluated per
// cycle.
func (st *PartitionStats) ActivityRate() float64 {
	if st.cycles == 0 {
		return 0
	}
	var total int64
	for _, n := range st.executed {
		total += n
	}
	return float64(total) / float64(st.cycles) / float64(st.numParts)
}

// Histogram buckets partitions by their activity rate.
func (st *PartitionStats) Histogram() map[string]int {
	h := map[string]int{}
	for _, n := range st.executed {
		rate := 0.0
		if st.cycles > 0 {
			rate = float64(n) / float64(st.cycles)
		}
		switch {
		case rate == 0:
			h["never"]++
		case rate < 0.1:
			h["<10%"]++
		case rate < 0.5:
			h["10-50%"]++
		case rate < 0.9:
			h["50-90%"]++
		default:
			h[">90%"]++
		}
	}
	return h
}

// WriteReport prints the activity histogram and the top-N hottest
// partitions by modeled instruction volume.
func (st *PartitionStats) WriteReport(w io.Writer, p *codegen.Program, topN int) error {
	fmt.Fprintf(w, "partition activity over %d cycles: mean %.1f%% of %d partitions per cycle\n",
		st.cycles, 100*st.ActivityRate(), st.numParts)
	h := st.Histogram()
	for _, k := range []string{"never", "<10%", "10-50%", "50-90%", ">90%"} {
		if h[k] > 0 {
			fmt.Fprintf(w, "  %-7s %d partitions\n", k, h[k])
		}
	}
	type hot struct {
		part int32
		work int64
	}
	hots := make([]hot, 0, st.numParts)
	for pt := range st.executed {
		hots = append(hots, hot{int32(pt), st.executed[pt] * st.dynCost[pt]})
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].work > hots[j].work })
	if topN > len(hots) {
		topN = len(hots)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "partition\tkernel\tshared\texecutions\tmodeled instrs")
	for _, ht := range hots[:topN] {
		k := p.Kernels[st.kernelOf[ht.part]]
		fmt.Fprintf(tw, "%d\t%d\t%v\t%d\t%d\n",
			ht.part, k.ID, k.Shared, st.executed[ht.part], ht.work)
	}
	return tw.Flush()
}
