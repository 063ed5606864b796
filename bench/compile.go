package main

import (
	"fmt"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
	"dedupsim/internal/dedup"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/graph"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/sched"
)

// compiled is one design lowered for one variant, with what the benchmark
// read off the compiler on the way: host milliseconds per stage and the
// counts that must repeat exactly.
type compiled struct {
	name   string
	c      *circuit.Circuit
	q      *graph.Graph // partition quotient, which sim.NewParallel needs
	cv     *harness.Compiled
	wall   time.Duration
	stages map[string]float64 // metric name -> ms
	counts map[string]float64 // metric name -> exact count
}

// compileDesign is harness.CompileVariant from FIRRTL text, one public
// call at a time so each stage can be timed from outside: parse,
// elaborate, hash, scheduling graph, partition or dedup, schedule, lower.
func compileDesign(tr *tracer, name, src string, v harness.Variant) (*compiled, error) {
	out := &compiled{name: name, stages: map[string]float64{}}
	var (
		ast  *firrtl.Circuit
		g    *graph.Graph
		dr   *dedup.Result
		s    *sched.Schedule
		prog *codegen.Program
	)
	type step struct {
		span, metric string // metric "" = timed into compile_s only
		f            func() error
	}
	steps := []step{
		{"firrtl.parse", "firrtl.parse_ms", func() (err error) { ast, err = firrtl.Parse(src); return }},
		{"firrtl.elaborate", "firrtl.elaborate_ms", func() (err error) { out.c, err = firrtl.Elaborate(ast); return }},
		{"circuit.hash", "circuit.hash_ms", func() error { _ = out.c.StructuralHash(); return nil }},
		{"circuit.schedgraph", "circuit.schedgraph_ms", func() error { g = out.c.SchedGraph(); return nil }},
	}
	quotient := step{"partition.quotient", "", func() error { out.q = dr.Part.Quotient(g); return nil }}
	if v == harness.Dedup {
		steps = append(steps,
			step{"dedup.deduplicate", "dedup.deduplicate_ms", func() (err error) { dr, err = dedup.Deduplicate(out.c, g, dedup.Options{}); return }},
			quotient,
			step{"sched.locality", "sched.locality_ms", func() (err error) { s, err = sched.LocalityAware(out.q, dr.Class); return }})
	} else {
		steps = append(steps,
			step{"partition.baseline", "partition.baseline_ms", func() error {
				res, err := partition.Partition(g, partition.Options{})
				if err == nil {
					dr = dedup.BaselineResult(res)
				}
				return err
			}},
			quotient,
			step{"sched.baseline", "sched.baseline_ms", func() (err error) { s, err = sched.Baseline(out.q); return }})
	}
	steps = append(steps, step{"codegen.compile", "codegen.compile_ms", func() (err error) {
		prog, err = codegen.Compile(out.c, dr, s, codegen.Options{})
		return
	}})

	start := time.Now()
	for _, st := range steps {
		sp := tr.begin(st.span, name)
		t0 := time.Now()
		err := st.f()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s %s %s: %w", name, v, st.span, err)
		}
		if st.metric != "" {
			out.stages[st.metric] = float64(time.Since(t0)) / 1e6
		}
	}
	out.wall = time.Since(start)
	out.cv = &harness.Compiled{Variant: v, Program: prog, Activity: true, Dedup: dr, Schedule: s}

	if v != harness.Dedup {
		out.counts = map[string]float64{"partition.parts": float64(prog.NumParts)}
		return out, nil
	}
	reuse := sched.Reuse(s, dr.Class)
	b2b := 0.0
	if reuse.Pairs > 0 {
		b2b = float64(reuse.BackToBack) / float64(reuse.Pairs)
	}
	out.counts = map[string]float64{
		"firrtl.src_kb":             float64(len(src)) / 1024,
		"firrtl.nodes":              float64(out.c.NumNodes()),
		"dedup.shared_classes":      float64(dr.NumClasses),
		"dedup.node_reduction_pct":  100 * dr.Stats.RealReduction,
		"dedup.dissolved_parts":     float64(dr.Stats.DissolvedBoundary + dr.Stats.DissolvedForCycles),
		"sched.reuse_mean_distance": reuse.MeanDistance,
		"sched.back_to_back_frac":   b2b,
		"codegen.kernels":           float64(len(prog.Kernels)),
		"codegen.code_bytes":        float64(prog.UniqueCodeBytes),
		"codegen.table_bytes":       float64(prog.TableBytes),
		"codegen.static_instrs":     float64(prog.Fusion.InstrsAfter),
		"codegen.fusion_frac":       prog.Fusion.Frac(),
	}
	return out, nil
}

// meanCounts are ratios: over a design set they average, the rest add up.
var meanCounts = map[string]bool{
	"dedup.node_reduction_pct": true, "sched.reuse_mean_distance": true,
	"sched.back_to_back_frac": true, "codegen.fusion_frac": true,
}

// sumOver folds per-design maps into one per-workload map.
func sumOver(sets []map[string]float64) map[string]float64 {
	out, n := map[string]float64{}, map[string]int{}
	for _, m := range sets {
		for k, v := range m {
			out[k] += v
			n[k]++
		}
	}
	for k := range out {
		if meanCounts[k] {
			out[k] /= float64(n[k])
		}
	}
	return out
}
