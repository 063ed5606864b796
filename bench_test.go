// Package dedupsim's root benchmark suite regenerates every table and
// figure of the paper's evaluation at benchmark scale (one bench per
// experiment; see DESIGN.md's per-experiment index), plus
// micro-benchmarks for the pipeline stages. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benches use the reduced QuickConfig grid so the whole
// suite completes in minutes; `go run ./cmd/experiments -all` regenerates
// the full-scale numbers.
package dedupsim_test

import (
	"strings"
	"testing"

	"dedupsim/internal/codegen"
	"dedupsim/internal/dedup"
	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/perfmodel"
	"dedupsim/internal/sched"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

func benchConfig() harness.Config {
	cfg := harness.QuickConfig()
	cfg.Cycles = 60
	return cfg
}

func runReport(b *testing.B, f func() (*harness.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Body == "" {
			b.Fatal("empty report")
		}
	}
}

// --- One benchmark per paper table and figure ----------------------------

func BenchmarkTable2NodeReduction(b *testing.B) { runReport(b, benchConfig().Table2) }
func BenchmarkTable3Contention(b *testing.B)    { runReport(b, benchConfig().Table3) }
func BenchmarkTable4Counters(b *testing.B)      { runReport(b, benchConfig().Table4) }
func BenchmarkFig1ParallelScaling(b *testing.B) { runReport(b, benchConfig().Fig1) }
func BenchmarkFig2LLCWays(b *testing.B)         { runReport(b, benchConfig().Fig2) }
func BenchmarkFig8SingleSim(b *testing.B)       { runReport(b, benchConfig().Fig8) }
func BenchmarkFig9Throughput(b *testing.B)      { runReport(b, benchConfig().Fig9) }
func BenchmarkFig10Desktop(b *testing.B)        { runReport(b, benchConfig().Fig10) }
func BenchmarkFig11PartitionTime(b *testing.B)  { runReport(b, benchConfig().Fig11) }
func BenchmarkFig12Workloads(b *testing.B)      { runReport(b, benchConfig().Fig12) }

// --- Pipeline-stage micro-benchmarks --------------------------------------

func BenchmarkElaborateLargeBoom2C(b *testing.B) {
	p := gen.Config(gen.LargeBoom, 2, 0.5)
	src := gen.GenerateFIRRTL(p)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Build(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionBaseline(b *testing.B) {
	c := gen.MustBuild(gen.Config(gen.LargeBoom, 4, 0.5))
	g := c.SchedGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Partition(g, partition.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeduplicate(b *testing.B) {
	c := gen.MustBuild(gen.Config(gen.LargeBoom, 4, 0.5))
	g := c.SchedGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dedup.Deduplicate(c, g, dedup.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalitySchedule(b *testing.B) {
	c := gen.MustBuild(gen.Config(gen.LargeBoom, 4, 0.5))
	g := c.SchedGraph()
	dr, err := dedup.Deduplicate(c, g, dedup.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := dr.Part.Quotient(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.LocalityAware(q, dr.Class); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEngine(b *testing.B, v harness.Variant) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.3))
	cv, err := harness.CompileVariant(c, v, partition.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.New(cv.Program, cv.Activity)
	drive := stimulus.VVAddA().NewDrive()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(e, i)
		e.Step()
	}
}

func BenchmarkEngineStepESSENT(b *testing.B) { benchEngine(b, harness.ESSENT) }
func BenchmarkEngineStepDedup(b *testing.B)  { benchEngine(b, harness.Dedup) }

func BenchmarkEngineStepVerilator(b *testing.B) { benchEngine(b, harness.Verilator) }

// --- Interpreter hot-path suite (CI smoke: -bench=BenchmarkStep) ----------
//
// BenchmarkStepScalar is the per-cycle scalar interpreter cost;
// BenchmarkStepBatchN runs N lockstep lanes and reports ns per LANE-cycle
// (b.N counts lane-cycles), so Scalar/BatchN compare directly: the ratio
// is the dispatch-amortization win of lane batching. Both use workload B
// (the paper's long, higher-activity benchmark), whose dirty-lane overlap
// is representative of real stimulus; workload A's near-disjoint activity
// is the adversarial floor and is covered by the differential tests.

func benchStepDesign() (*harness.Compiled, error) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.3))
	return harness.CompileVariant(c, harness.Dedup, partition.Options{})
}

func BenchmarkStepScalar(b *testing.B) {
	cv, err := benchStepDesign()
	if err != nil {
		b.Fatal(err)
	}
	e := sim.New(cv.Program, cv.Activity)
	drive := stimulus.VVAddB().NewEngineDrive(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(i)
		e.Step()
	}
}

func benchStepBatch(b *testing.B, lanes int) {
	cv, err := benchStepDesign()
	if err != nil {
		b.Fatal(err)
	}
	be, err := sim.NewBatch(cv.Program, cv.Activity, lanes)
	if err != nil {
		b.Fatal(err)
	}
	drives := make([]func(int), lanes)
	for l := range drives {
		drives[l] = stimulus.VVAddB().Lane(l).NewLaneDrive(be, l)
	}
	b.ResetTimer()
	// b.N counts lane-cycles: one batch step advances `lanes` of them.
	for i := 0; i < b.N; i += lanes {
		cyc := i / lanes
		for l := 0; l < lanes; l++ {
			drives[l](cyc)
		}
		be.Step()
	}
}

func BenchmarkStepBatch2(b *testing.B)  { benchStepBatch(b, 2) }
func BenchmarkStepBatch4(b *testing.B)  { benchStepBatch(b, 4) }
func BenchmarkStepBatch8(b *testing.B)  { benchStepBatch(b, 8) }
func BenchmarkStepBatch16(b *testing.B) { benchStepBatch(b, 16) }

// --- Fusion/dispatch suite (CI smoke: -bench='BenchmarkDispatch|BenchmarkFusedStep')

// compileForFusionBench compiles the step-bench design through the dedup
// pipeline with explicit codegen options, so fused and unfused programs
// differ ONLY in the peephole pass and 1-bit packing.
func compileForFusionBench(b *testing.B, opt codegen.Options) *codegen.Program {
	b.Helper()
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.3))
	g := c.SchedGraph()
	dr, err := dedup.Deduplicate(c, g, dedup.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.LocalityAware(dr.Part.Quotient(g), dr.Class)
	if err != nil {
		b.Fatal(err)
	}
	p, err := codegen.Compile(c, dr, s, opt)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchDispatchScalar(b *testing.B, opt codegen.Options) {
	p := compileForFusionBench(b, opt)
	e := sim.New(p, true)
	drive := stimulus.VVAddB().NewEngineDrive(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(i)
		e.Step()
	}
}

// BenchmarkDispatch isolates the interpreter dispatch layer: the same
// deduplicated design run through the unified jump-table core with
// superinstruction fusion + 1-bit packing on (the default) vs off.
// Fused/Unfused is the per-cycle win of the shorter fused instruction
// stream.
func BenchmarkDispatch(b *testing.B) {
	b.Run("Fused", func(b *testing.B) {
		benchDispatchScalar(b, codegen.Options{})
	})
	b.Run("Unfused", func(b *testing.B) {
		benchDispatchScalar(b, codegen.Options{DisableFusion: true, DisablePacking: true})
	})
}

// BenchmarkFusedStep is the headline single-lane hot path after this
// change: fused superinstructions + packed 1-bit state + jump-table
// dispatch on the scalar engine, workload B. Compare against
// BenchmarkDispatch/Unfused for the fusion win in isolation.
func BenchmarkFusedStep(b *testing.B) {
	benchDispatchScalar(b, codegen.Options{})
}

func BenchmarkReferenceStep(b *testing.B) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.3))
	r, err := sim.NewRef(c)
	if err != nil {
		b.Fatal(err)
	}
	drive := stimulus.VVAddA().NewDrive()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(r, i)
		r.Step()
	}
}

func BenchmarkCacheModelReplay(b *testing.B) {
	cfg := benchConfig()
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 2, cfg.Scale))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		b.Fatal(err)
	}
	drive := stimulus.VVAddA().NewDrive()
	tr := perfmodel.Record(cv.Program, true, 60, func(e *sim.Engine, cyc int) { drive(e, cyc) })
	m := cfg.ServerMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfmodel.RunSingle(tr, m, m.LLCWays)
	}
}

func BenchmarkAblationBoundaryDissolve(b *testing.B) {
	runReport(b, benchConfig().AblationBoundaryDissolve)
}

func BenchmarkAblationLocality(b *testing.B) { runReport(b, benchConfig().AblationLocality) }

func BenchmarkEventDrivenStep(b *testing.B) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.3))
	ed, err := sim.NewEventDriven(c)
	if err != nil {
		b.Fatal(err)
	}
	drive := stimulus.VVAddA().NewDrive()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(ed, i)
		ed.Step()
	}
}

func BenchmarkEmitCpp(b *testing.B) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.3))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := codegen.EmitCpp(&sb, cv.Program, c.Name); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(sb.Len()))
	}
}

func benchParallel(b *testing.B, threads int) {
	c := gen.MustBuild(gen.Config(gen.MegaBoom, 8, 0.3))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pe, err := sim.NewParallel(cv.Program, cv.Dedup.Part.Quotient(c.SchedGraph()), threads)
	if err != nil {
		b.Fatal(err)
	}
	drive := stimulus.VVAddB().NewDrive()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(pe, i)
		pe.Step()
	}
}

func BenchmarkParallelEngine1T(b *testing.B) { benchParallel(b, 1) }
func BenchmarkParallelEngine4T(b *testing.B) { benchParallel(b, 4) }
