// Command dedupsim compiles one design under one simulator variant, runs
// it, and reports simulation statistics — the library's front door.
//
// Usage:
//
//	dedupsim -design LargeBoom-4C -variant Dedup -cycles 2000
//	dedupsim -firrtl mydesign.fir -variant ESSENT -workload B
//	dedupsim -design Rocket-2C -variant Dedup -verify   # against reference
//	dedupsim -design MegaBoom-8C -variant Dedup -model  # modeled counters
//	dedupsim -design Rocket-2C -json                    # machine-readable
//	dedupsim -design SmallBoom-4C -lanes 8              # 8 lane-batched sims
//
// With -json the human-readable report moves to stderr and stdout carries
// a single JSON document in the same encoding the farm API (dedupfarmd)
// serves, so scripts can consume either interchangeably.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
	"dedupsim/internal/farm"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/perfmodel"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

func main() {
	design := flag.String("design", "", "generated design name, e.g. Rocket-2C, LargeBoom-6C")
	firrtlPath := flag.String("firrtl", "", "path to a FIRRTL-dialect source file (alternative to -design)")
	variantName := flag.String("variant", "Dedup", "simulator variant: "+variantList())
	scale := flag.Float64("scale", 1.0, "generator scale in (0, 1]")
	cycles := flag.Int("cycles", 1000, "simulated cycles to run")
	workload := flag.String("workload", "A", "stimulus workload: A (low activity) or B (high activity)")
	lanes := flag.Int("lanes", 1, "run N independently-seeded simulations in one lane-batched engine (1..64)")
	verify := flag.Bool("verify", false, "co-simulate against the reference interpreter and compare outputs")
	model := flag.Bool("model", false, "also report modeled host performance counters")
	vcdPath := flag.String("vcd", "", "dump a waveform of all registers and I/O to this VCD file")
	stats := flag.Bool("stats", false, "report per-partition activity and the hottest partitions")
	cppPath := flag.String("emit-cpp", "", "write the compiled simulator as C++ source to this file")
	jsonOut := flag.Bool("json", false, "emit simulation stats as JSON on stdout (human report moves to stderr)")
	flag.Parse()

	// With -json, stdout is reserved for the JSON document.
	var out io.Writer = os.Stdout
	if *jsonOut {
		out = os.Stderr
	}

	// SIGINT/SIGTERM stop the simulation at the next cycle-chunk
	// boundary; the run then flushes whatever it has (VCD, stats, JSON)
	// and exits cleanly. A second signal kills the process the default
	// way (NotifyContext unregisters after the first).
	sigCtx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	c, err := loadDesign(*design, *firrtlPath, *scale)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(out, "design: %s\n", c)

	v := harness.Variant(*variantName)
	if v == harness.Commercial {
		fail(fmt.Errorf("the Commercial variant is event-driven and only exists in the performance model; use cmd/experiments"))
	}
	start := time.Now()
	cv, err := harness.CompileVariant(c, v, partition.Options{})
	if err != nil {
		fail(err)
	}
	compileTime := time.Since(start)
	prog := cv.Program
	fmt.Fprintf(out, "compiled %s in %s: %d partitions, %d kernels (%d shared classes), code %d B, tables %d B\n",
		v, compileTime.Round(time.Millisecond),
		prog.NumParts, len(prog.Kernels), sharedClasses(cv), prog.UniqueCodeBytes, prog.TableBytes)
	if cv.Dedup != nil && cv.Dedup.Stats.Module != "" {
		s := cv.Dedup.Stats
		fmt.Fprintf(out, "dedup: module %s x%d (%d nodes each), ideal %.2f%%, real %.2f%%\n",
			s.Module, s.Instances, s.InstanceSize, 100*s.IdealReduction, 100*s.RealReduction)
	}

	if *cppPath != "" {
		f, err := os.Create(*cppPath)
		if err != nil {
			fail(err)
		}
		if err := codegen.EmitCpp(f, prog, c.Name); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "emitted C++ simulator to %s\n", *cppPath)
	}

	var wl stimulus.Workload
	switch strings.ToUpper(*workload) {
	case "A":
		wl = stimulus.VVAddA()
	case "B":
		wl = stimulus.VVAddB()
	default:
		fail(fmt.Errorf("unknown workload %q", *workload))
	}

	if *lanes > 1 {
		if *verify || *vcdPath != "" || *stats || *model {
			fail(fmt.Errorf("-lanes runs plain lockstep simulation; drop -verify/-vcd/-stats/-model or use -lanes 1"))
		}
		runLanes(sigCtx, out, c, cv, wl, *lanes, *cycles, compileTime, *jsonOut)
		return
	}

	e := sim.New(prog, cv.Activity)
	drive := wl.NewDrive()
	var ref *sim.Ref
	var refDrive func(stimulus.Driver, int)
	if *verify {
		ref, err = sim.NewRef(c)
		if err != nil {
			fail(err)
		}
		refDrive = wl.NewDrive()
	}
	var pstats *sim.PartitionStats
	if *stats {
		pstats = sim.NewPartitionStats(e)
	}
	var vcd *sim.VCDWriter
	var vcdFile *os.File
	var prober *sim.EngineProber
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fail(err)
		}
		vcdFile = f
		prober = sim.NewEngineProber(prog, e.Slot, c)
		var probes []string
		for _, n := range sim.ProbeNames(c) {
			if _, _, ok := prober.Probe(n); ok {
				probes = append(probes, n)
			}
		}
		vcd, err = sim.NewVCDWriter(f, c, probes)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "dumping %d signals to %s\n", len(probes), *vcdPath)
	}
	interrupted := false
	start = time.Now()
	for cyc := 0; cyc < *cycles; cyc++ {
		if cyc%256 == 0 && sigCtx.Err() != nil {
			interrupted = true
			break
		}
		drive(e, cyc)
		e.Step()
		if vcd != nil {
			if err := vcd.Sample(prober, cyc); err != nil {
				fail(err)
			}
		}
		if pstats != nil {
			pstats.Observe()
		}
		if ref != nil {
			refDrive(ref, cyc)
			ref.Step()
			for _, o := range c.Outputs() {
				name := c.Names[o]
				got, _ := e.Output(name)
				want, _ := ref.Output(name)
				if got != want {
					fail(fmt.Errorf("verification FAILED at cycle %d: output %q engine=%#x reference=%#x",
						cyc, name, got, want))
				}
			}
		}
	}
	// Flush the waveform even on an interrupted run — a truncated-but-
	// well-formed VCD beats a corrupt one — and propagate write errors
	// (ENOSPC, closed pipe) as run failures rather than dropping them.
	if vcd != nil {
		if err := vcd.Close(); err != nil {
			fail(fmt.Errorf("vcd write: %w", err))
		}
		if err := vcdFile.Close(); err != nil {
			fail(fmt.Errorf("vcd close: %w", err))
		}
	}
	wall := time.Since(start)
	if interrupted {
		fmt.Fprintf(out, "interrupted after %d of %d cycles; flushing results\n", e.Cycles, *cycles)
	}
	fmt.Fprintf(out, "ran %d cycles in %s (%.0f simulated Hz in-process)\n",
		e.Cycles, wall.Round(time.Millisecond), float64(e.Cycles)/wall.Seconds())
	total := e.ActsExecuted + e.ActsSkipped
	fmt.Fprintf(out, "activations: %d executed, %d skipped (%.1f%% activity)\n",
		e.ActsExecuted, e.ActsSkipped, 100*float64(e.ActsExecuted)/float64(total))
	for _, o := range c.Outputs() {
		val, _ := e.Output(c.Names[o])
		fmt.Fprintf(out, "output %-12s = %#x\n", c.Names[o], val)
	}
	if ref != nil && !interrupted {
		fmt.Fprintln(out, "verification PASSED: all outputs matched the reference every cycle")
	}
	if pstats != nil {
		fmt.Fprintln(out)
		if err := pstats.WriteReport(out, prog, 10); err != nil {
			fail(err)
		}
	}

	if *model {
		m := perfmodel.Server().ScaleCaches(int(20 / *scale))
		drive2 := wl.NewDrive()
		tr := perfmodel.Record(prog, cv.Activity, min(*cycles, 500),
			func(e *sim.Engine, cyc int) { drive2(e, cyc) })
		ctr := perfmodel.RunSingle(tr, m, 0)
		fmt.Fprintf(out, "modeled on %s: %.0f sim Hz, IPC %.2f, L1I MPKI %.1f, branch MPKI %.1f, stall %.1f%%\n",
			m.Name, ctr.SimHz, ctr.IPC, ctr.L1IMPKI, ctr.BranchMPKI, ctr.StallPct)
	}

	if *jsonOut {
		n := farm.Counters{Cycles: e.Cycles, ActsExecuted: e.ActsExecuted, ActsSkipped: e.ActsSkipped, DynInstrs: e.DynInstrs}
		st := farm.CollectStats(c, c.StructuralHash(), cv, n, e.Output, compileTime, wall)
		st.Workload = wl.Name
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fail(err)
		}
	}
}

// runLanes simulates N decorrelated copies of the design in one
// lane-batched engine (lane l reseeds the workload via Workload.Lane) and
// reports aggregate throughput. With -json, stdout carries an array of
// per-lane SimStats in the farm encoding. SIGINT/SIGTERM (sigCtx) stops
// the lockstep loop at the next chunk boundary and reports what ran.
func runLanes(sigCtx context.Context, out io.Writer, c *circuit.Circuit, cv *harness.Compiled, wl stimulus.Workload,
	lanes, cycles int, compileTime time.Duration, jsonOut bool) {
	be, err := sim.NewBatch(cv.Program, cv.Activity, lanes)
	if err != nil {
		fail(err)
	}
	drives := make([]func(int), lanes)
	for l := range drives {
		drives[l] = wl.Lane(l).NewLaneDrive(be, l)
	}
	ran := 0
	start := time.Now()
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc%256 == 0 && sigCtx.Err() != nil {
			fmt.Fprintf(out, "interrupted after %d of %d cycles; flushing results\n", ran, cycles)
			break
		}
		for l := 0; l < lanes; l++ {
			drives[l](cyc)
		}
		be.Step()
		ran++
	}
	wall := time.Since(start)
	laneCycles := int64(lanes) * int64(ran)
	fmt.Fprintf(out, "ran %d lanes x %d cycles in %s (%.0f aggregate simulated Hz, %.0f Hz/lane)\n",
		lanes, ran, wall.Round(time.Millisecond),
		float64(laneCycles)/wall.Seconds(), float64(ran)/wall.Seconds())
	var executed, skipped int64
	for l := 0; l < lanes; l++ {
		executed += be.ActsExecuted[l]
		skipped += be.ActsSkipped[l]
	}
	fmt.Fprintf(out, "activations: %d executed, %d skipped (%.1f%% activity across lanes)\n",
		executed, skipped, 100*float64(executed)/float64(executed+skipped))
	for _, o := range c.Outputs() {
		name := c.Names[o]
		fmt.Fprintf(out, "output %-12s =", name)
		for l := 0; l < lanes; l++ {
			v, _ := be.Output(l, name)
			fmt.Fprintf(out, " %#x", v)
		}
		fmt.Fprintln(out)
	}
	if jsonOut {
		stats := make([]farm.SimStats, lanes)
		hash := c.StructuralHash()
		for l := range stats {
			compile := time.Duration(0)
			if l == 0 {
				compile = compileTime
			}
			stats[l] = farm.CollectLaneStats(c, hash, cv, be, l, compile, wall)
			stats[l].Workload = wl.Name
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats); err != nil {
			fail(err)
		}
	}
}

func loadDesign(design, path string, scale float64) (*circuit.Circuit, error) {
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
		f, cores, err := gen.ParseDesign(design)
		if err != nil {
			return nil, err
		}
		return gen.Build(gen.Config(f, cores, scale))
	default:
		return nil, fmt.Errorf("specify -design (e.g. Rocket-2C) or -firrtl FILE")
	}
}

func sharedClasses(cv *harness.Compiled) int {
	if cv.Dedup == nil {
		return 0
	}
	return cv.Dedup.NumClasses
}

func variantList() string {
	names := make([]string, len(harness.CompiledVariants))
	for i, v := range harness.CompiledVariants {
		names[i] = string(v)
	}
	return strings.Join(names, ", ")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dedupsim:", err)
	os.Exit(1)
}
