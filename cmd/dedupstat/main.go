// Command dedupstat analyzes a design's deduplication potential without
// running any simulation: module replication inventory, the selected
// module and its benefit, the dissolve/kept breakdown, and optionally a
// Graphviz DOT rendering of the partitioned design.
//
// Usage:
//
//	dedupstat -design SmallBoom-4C
//	dedupstat -firrtl my.fir -multi
//	dedupstat -design Rocket-2C -scale 0.1 -dot rocket2.dot
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
	"dedupsim/internal/dedup"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/gen"
	"dedupsim/internal/graph"
	"dedupsim/internal/partition"
	"dedupsim/internal/sched"
)

func main() {
	design := flag.String("design", "", "generated design name, e.g. SmallBoom-4C")
	firrtlPath := flag.String("firrtl", "", "path to a FIRRTL-dialect source file")
	scale := flag.Float64("scale", 1.0, "generator scale in (0, 1]")
	multi := flag.Bool("multi", false, "use multi-module deduplication (Fig. 6b extension)")
	dotPath := flag.String("dot", "", "write a DOT rendering of the partitioned scheduling graph")
	flag.Parse()

	c, err := load(*design, *firrtlPath, *scale)
	if err != nil {
		fail(err)
	}
	fmt.Printf("design: %s\n\n", c)

	// Module replication inventory.
	type modInfo struct {
		name      string
		instances int
		size      int
	}
	byInst := c.NodesByDeepInstance()
	subtrees := c.InstanceSubtrees()
	counts := map[string][]int32{}
	for i := 1; i < len(c.Instances); i++ {
		counts[c.Instances[i].Module] = append(counts[c.Instances[i].Module], int32(i))
	}
	var mods []modInfo
	for name, roots := range counts {
		size := 0
		for _, inst := range subtrees[roots[0]] {
			size += len(byInst[inst])
		}
		mods = append(mods, modInfo{name, len(roots), size})
	}
	sort.Slice(mods, func(i, j int) bool {
		bi, bj := mods[i].instances*mods[i].size, mods[j].instances*mods[j].size
		if bi != bj {
			return bi > bj
		}
		return mods[i].name < mods[j].name
	})
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Module\tInstances\tNodes/instance\tBenefit\tEligible")
	for _, m := range mods {
		eligible := "no (single instance)"
		if m.instances >= 2 {
			eligible = "yes"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\n", m.name, m.instances, m.size, m.instances*m.size, eligible)
	}
	tw.Flush()

	g := c.SchedGraph()
	r, err := dedup.Deduplicate(c, g, dedup.Options{MultiModule: *multi})
	if err != nil {
		fail(err)
	}
	st := r.Stats
	fmt.Printf("\ndeduplication (%s):\n", mode(*multi))
	if st.Module == "" {
		fmt.Println("  nothing to deduplicate")
	} else {
		fmt.Printf("  modules:            %s\n", strings.Join(st.Modules, ", "))
		fmt.Printf("  primary:            %s x%d (%d nodes each)\n", st.Module, st.Instances, st.InstanceSize)
		fmt.Printf("  ideal reduction:    %.2f%%\n", 100*st.IdealReduction)
		fmt.Printf("  real reduction:     %.2f%%\n", 100*st.RealReduction)
		fmt.Printf("  template parts:     %d (kept %d, dissolved %d boundary + %d cycle repair)\n",
			st.TemplateParts, st.KeptParts, st.DissolvedBoundary, st.DissolvedForCycles)
	}
	fmt.Printf("  final partitions:   %d (%d shared classes)\n", r.Part.NumParts, r.NumClasses)

	base, err := partition.Partition(g, partition.Options{})
	if err != nil {
		fail(err)
	}
	printQuality(g, base, r.Part)

	// Compile and report the interpreter-lowering stats: superinstruction
	// fusion and 1-bit cross-partition signal packing.
	s, err := sched.LocalityAware(r.Part.Quotient(g), r.Class)
	if err != nil {
		fail(err)
	}
	p, err := codegen.Compile(c, r, s, codegen.Options{})
	if err != nil {
		fail(err)
	}
	fmt.Printf("\ncodegen:\n")
	fmt.Printf("  instructions:       %d -> %d after fusion (%.1f%% of dispatched instrs fused away)\n",
		p.Fusion.InstrsBefore, p.Fusion.InstrsAfter, 100*p.Fusion.Frac())
	for k, n := range p.Fusion.FusedByKind {
		if n > 0 {
			fmt.Printf("    %-16s %d\n", codegen.FusionKind(k).String()+":", n)
		}
	}
	fmt.Printf("  1-bit packing:      %d signals in %d words (state %d slots -> %d words)\n",
		p.PackedSignals, p.PackedWords, p.NumSlots, p.NumWords)
	members := 0
	for _, run := range p.ClassRuns {
		members += int(run.Len)
	}
	fmt.Printf("  class runs:         %d", len(p.ClassRuns))
	if len(p.ClassRuns) > 0 {
		fmt.Printf(" (mean %.2f members, %d of %d activations)", float64(members)/float64(len(p.ClassRuns)), members, len(p.Activations))
	}
	fmt.Println()

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		err = g.WriteDOT(f, c.Name,
			func(v graph.NodeID) string {
				if n := c.Names[v]; n != "" {
					return n
				}
				return c.Ops[v].String()
			},
			func(v graph.NodeID) int32 { return r.Part.Assign[v] })
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nwrote %s (render with: dot -Tsvg %s -o out.svg)\n", *dotPath, *dotPath)
	}
}

// printQuality tabulates the baseline's and Dedup's mean partition
// size, sink fraction and power-of-two size histogram.
func printQuality(g *graph.Graph, base, dd *partition.Result) {
	rows := []struct {
		name string
		r    *partition.Result
		q    partition.Quality
	}{{name: "ESSENT baseline", r: base}, {name: "Dedup", r: dd}}
	buckets := 0
	for i := range rows {
		rows[i].q = rows[i].r.Quality(g)
		buckets = max(buckets, len(rows[i].q.SizeHist))
	}
	fmt.Printf("\npartition quality (histogram: partitions per size in nodes):\n")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "\tparts\tmean size\tsinks")
	for k := 0; k < buckets; k++ {
		if k == 0 {
			fmt.Fprint(tw, "\t1")
		} else {
			fmt.Fprintf(tw, "\t%d-%d", 1<<k, 2<<k-1)
		}
	}
	fmt.Fprintln(tw)
	for _, row := range rows {
		fmt.Fprintf(tw, "  %s\t%d\t%.1f\t%.1f%%", row.name, row.r.NumParts, row.q.MeanSize, 100*row.q.SinkFrac)
		for k := 0; k < buckets; k++ {
			n := 0
			if k < len(row.q.SizeHist) {
				n = row.q.SizeHist[k]
			}
			fmt.Fprintf(tw, "\t%d", n)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func mode(multi bool) string {
	if multi {
		return "multi-module"
	}
	return "single module, paper default"
}

func load(design, path string, scale float64) (*circuit.Circuit, error) {
	switch {
	case design != "" && path != "":
		return nil, fmt.Errorf("use either -design or -firrtl, not both")
	case path != "":
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return firrtl.Compile(string(src))
	case design != "":
		i := strings.LastIndexByte(design, '-')
		if i < 0 || !strings.HasSuffix(design, "C") {
			return nil, fmt.Errorf("design %q: want FAMILY-nC", design)
		}
		cores, err := strconv.Atoi(design[i+1 : len(design)-1])
		if err != nil || cores < 1 {
			return nil, fmt.Errorf("design %q: bad core count", design)
		}
		for _, f := range gen.Families {
			if string(f) == design[:i] {
				return gen.Build(gen.Config(f, cores, scale))
			}
		}
		return nil, fmt.Errorf("unknown family in %q (have %v)", design, gen.Families)
	default:
		return nil, fmt.Errorf("specify -design or -firrtl")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dedupstat:", err)
	os.Exit(1)
}
