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
//	dedupsim -design SmallBoom-4C -lanes 8 -verify      # 8 lane-batched sims
//
// With -json the human-readable report moves to stderr and stdout carries
// a single JSON document in the same encoding the farm API (dedupfarmd)
// serves, so scripts can consume either interchangeably. With -lanes N,
// -verify checks every lane against its own reference, -vcd dumps lane 0,
// and -json emits an array of per-lane records; -stats and -model observe
// one simulation and need -lanes 1.
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

	// Every run steps one lane-batched engine; -lanes 1 is the plain
	// one-simulation run. Lane l reseeds the workload via Workload.Lane.
	if *lanes > 1 && *model {
		fail(fmt.Errorf("-model records one simulation; drop it or use -lanes 1"))
	}
	be, err := sim.NewBatch(prog, cv.Activity, *lanes)
	if err != nil {
		fail(err)
	}
	L := be.Lanes()
	drives := make([]func(int), L)
	for l := range drives {
		drives[l] = wl.Lane(l).NewLaneDrive(be, l)
	}
	// -verify co-simulates every lane against its own reference
	// interpreter, driven by that lane's stimulus.
	var refs []*sim.Ref
	var refDrives []func(stimulus.Driver, int)
	if *verify {
		for l := 0; l < L; l++ {
			ref, err := sim.NewRef(c)
			if err != nil {
				fail(err)
			}
			refs = append(refs, ref)
			refDrives = append(refDrives, wl.Lane(l).NewDrive())
		}
	}
	var pstats *sim.PartitionStats
	if *stats {
		if pstats, err = sim.NewPartitionStats(be); err != nil {
			fail(err)
		}
	}
	// -vcd samples lane 0.
	var vcd *sim.VCDWriter
	var vcdFile *os.File
	var prober *sim.EngineProber
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fail(err)
		}
		vcdFile = f
		prober = sim.NewEngineProber(prog, func(s int32) uint64 { return be.Slot(0, s) }, c)
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
		for _, drive := range drives {
			drive(cyc)
		}
		be.Step()
		if vcd != nil {
			if err := vcd.Sample(prober, cyc); err != nil {
				fail(err)
			}
		}
		if pstats != nil {
			pstats.Observe()
		}
		for l, ref := range refs {
			refDrives[l](ref, cyc)
			ref.Step()
			for _, o := range c.Outputs() {
				name := c.Names[o]
				got, _ := be.Output(l, name)
				want, _ := ref.Output(name)
				if got != want {
					fail(fmt.Errorf("verification FAILED at cycle %d: lane %d output %q engine=%#x reference=%#x",
						cyc, l, name, got, want))
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
	ran := be.Cycles[0]
	if interrupted {
		fmt.Fprintf(out, "interrupted after %d of %d cycles; flushing results\n", ran, *cycles)
	}
	var executed, skipped int64
	for l := 0; l < L; l++ {
		executed += be.ActsExecuted[l]
		skipped += be.ActsSkipped[l]
	}
	across := ""
	if L == 1 {
		fmt.Fprintf(out, "ran %d cycles in %s (%.0f simulated Hz in-process)\n",
			ran, wall.Round(time.Millisecond), float64(ran)/wall.Seconds())
	} else {
		fmt.Fprintf(out, "ran %d lanes x %d cycles in %s (%.0f aggregate simulated Hz, %.0f Hz/lane)\n",
			L, ran, wall.Round(time.Millisecond), float64(int64(L)*ran)/wall.Seconds(), float64(ran)/wall.Seconds())
		across = " across lanes"
	}
	fmt.Fprintf(out, "activations: %d executed, %d skipped (%.1f%% activity%s)\n",
		executed, skipped, 100*float64(executed)/float64(executed+skipped), across)
	for _, o := range c.Outputs() {
		name := c.Names[o]
		fmt.Fprintf(out, "output %-12s =", name)
		for l := 0; l < L; l++ {
			v, _ := be.Output(l, name)
			fmt.Fprintf(out, " %#x", v)
		}
		fmt.Fprintln(out)
	}
	if refs != nil && !interrupted {
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

	// -json: one SimStats in the farm encoding, or an array of per-lane
	// ones when -lanes > 1. The compile time is charged to lane 0.
	if *jsonOut {
		hash := c.StructuralHash()
		laneStats := make([]farm.SimStats, L)
		for l := range laneStats {
			compile := time.Duration(0)
			if l == 0 {
				compile = compileTime
			}
			laneStats[l] = farm.CollectLaneStats(c, hash, cv, be, l, compile, wall)
			laneStats[l].Workload = wl.Name
		}
		var doc any = laneStats
		if L == 1 {
			doc = laneStats[0]
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
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
