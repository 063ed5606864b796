package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// finish folds the run's samples into the metrics of its mode: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one. A metric without a sample is an error, not a zero.
func (r *run) finish() (*result, error) {
	if r.opt.trace {
		if err := r.layerMetrics(); err != nil {
			return nil, err
		}
	}
	res := &result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]Sample{}, Problems: r.problems, Notes: r.notes,
		StimulusDigest: fmt.Sprintf("%016x", stimulusDigest(r.stim(), 256)),
		TraceFile:      r.traceFile,
		tr:             r.tr,
	}
	for _, d := range defsFor(r.opt.trace) {
		switch d.name {
		case "sim_khz":
			s := r.khzSample(r.chunksD)
			s.Unit = d.unit
			res.Metrics[d.name] = s
			continue
		case "compile_s":
			s := r.compileSample()
			s.Unit = d.unit
			res.Metrics[d.name] = s
			continue
		}
		vals := r.samples[d.name]
		if d.exact {
			if v, ok := r.counts[d.name]; ok {
				vals = []float64{v}
			}
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("%s: no sample of %s", r.w.name, d.name)
		}
		s := summarize(vals, d.unit)
		s.Exact = d.exact
		if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			return nil, fmt.Errorf("%s: %s is %v", r.w.name, d.name, s.Median)
		}
		res.Metrics[d.name] = s
	}
	return res, nil
}

// compileSample sums the designs' compile times, each at its median (and
// quartiles) over the trials: one slow trial of one design moves nothing.
func (r *run) compileSample() Sample {
	var s Sample
	for _, walls := range r.compileWall {
		q1, med, q3 := quartiles(walls)
		s.N, s.Q1, s.Median, s.Q3 = len(walls), s.Q1+q1, s.Median+med, s.Q3+q3
	}
	return s
}

// layerMetrics derives the per-layer metrics that are ratios or sums of
// what the stages recorded, reads the tiers' public snapshots, and writes
// the trace.
func (r *run) layerMetrics() error {
	var cycles, acts, skipped, dynD, dynE int64
	for i, sc := range r.cases {
		cycles += int64(sc.cycles)
		acts += r.firstDedup[i].acts
		skipped += r.firstDedup[i].skipped
		dynD += r.firstDedup[i].dyn
		dynE += r.firstEss[i].dyn
	}
	simKhz := r.khzSample(r.chunksD)
	nsPerCycle := 1e6 / simKhz.Median // per lane-cycle on the batch engine
	r.rec("sim.acts_per_cycle", float64(acts)/float64(cycles))
	r.rec("sim.dyn_instrs_per_cycle", float64(dynD)/float64(cycles))
	r.rec("sim.activity_pct", 100*float64(acts)/float64(acts+skipped))
	r.rec("sim.dedup_tax_pct", 100*(float64(dynD)/float64(dynE)-1))
	r.rec("sim.ns_per_act", nsPerCycle/(float64(acts)/float64(cycles)))
	r.rec("sim.ns_per_interp_instr", nsPerCycle/median(r.samples["sim.interp_instrs_per_cycle"]))
	r.rec("sim.ref_khz", float64(r.refCycles)/1e3/r.refTime.Seconds())
	tracedCycles := float64(cycles) * float64(len(r.samples["sim.dedup_vs_essent"]))
	r.rec("sim.essent_khz", r.khz(r.chunksE, median))
	r.rec("stimulus.drive_ns_per_cycle", r.driveNs/tracedCycles)
	r.rec("bench.trace_overhead_pct", 100*(1-r.khz(r.chunksT, median)/simKhz.Median))
	r.rec("bench.trial_iqr_pct", 100*math.Max(r.compileSample().IQRFrac(), simKhz.IQRFrac()))

	f := r.farmPass
	st, lat := f.farm, f.farm.Latency
	if lat == nil {
		return fmt.Errorf("farm.Stats().Latency is nil")
	}
	r.rec("farm.submit_us", median(f.submitUs))
	// The histograms' means, not their p50s: a quantile of a log-linear
	// histogram is a bucket edge, which reads the same on run after run.
	r.rec("farm.queue_wait_mean_ms", lat.QueueWait.MeanMs)
	r.rec("farm.lane_wait_mean_ms", lat.LaneWait.MeanMs)
	r.rec("farm.compile_mean_ms", lat.Compile.MeanMs)
	r.rec("farm.sim_run_mean_ms", lat.SimRun.MeanMs)
	r.rec("farm.ckpt_write_mean_ms", lat.CheckpointWrite.MeanMs)
	r.rec("farm.cache_hit_frac", float64(st.Cache.Hits)/float64(st.Cache.Hits+st.Cache.Misses))
	r.rec("farm.compiles", float64(st.Cache.Misses))
	var laneSum float64
	for _, v := range f.views {
		if v.Stats != nil {
			laneSum += float64(max(1, v.Stats.Lanes))
		}
	}
	r.rec("farm.lanes_mean", laneSum/float64(len(f.views)))
	r.rec("farm.ckpts_taken", float64(st.CheckpointsTaken))
	r.rec("farm.worker_util", st.SimWallMs/(float64(st.Workers)*float64(f.makespan)/1e6))
	r.rec("farm.aggregate_sim_hz", st.AggregateSimHz)
	r.rec("farm.recovery_ms", f.recovery.RecoveryMillis)
	r.rec("tenant.share_err_pct", shareError(f.shares))
	r.rec("obs.prom_render_ms", f.promMs)
	r.rec("obs.stats_render_ms", f.statsMs)
	// Where a job's time went, by the farm's own stage histograms, against
	// what the generator timed. With coalescing on, lane wait is the same
	// interval as queue wait, so it is not added twice.
	jobs := float64(len(f.views))
	accounted := (lat.QueueWait.MeanMs*float64(lat.QueueWait.Count) + lat.Compile.MeanMs*float64(lat.Compile.Count) +
		lat.SimRun.MeanMs*float64(lat.SimRun.Count)) / jobs
	r.notes = append(r.notes, fmt.Sprintf(
		"farm: mean job latency %.2f ms by the generator; queue-wait + compile + sim-run histograms account for %.2f ms (%.0f%%)",
		mean(f.latMs), accounted, 100*accounted/mean(f.latMs)))

	c := r.fleetPass
	fl := c.fleet
	if fl.Latency == nil {
		return fmt.Errorf("Router.Stats().Latency is nil")
	}
	r.rec("cluster.submit_p50_ms", percentile(c.submitUs, 50)/1e3)
	r.rec("cluster.forward_mean_ms", fl.Latency.Forward.MeanMs)
	r.rec("cluster.spilled_frac", float64(fl.Spilled)/float64(max(1, fl.Forwarded)))
	r.rec("cluster.compiles_fleetwide", float64(fl.Compiles))
	r.rec("cluster.artifacts_pulled", float64(fl.ArtifactsFetched))
	r.rec("cluster.overhead_pct", 100*(1-c.sweepKhz()/f.sweepKhz()))

	r.rec("failed_frac", float64(r.failed)/float64(r.attempted))
	r.rec("bench.span_coverage_pct", 100*r.tr.coverage())
	r.traceFile = filepath.Join(r.opt.workdir, "trace-"+r.w.name+".json")
	return r.tr.writeChrome(r.traceFile)
}

// printSelfTimes lists each layer's self time in a traced run.
func printSelfTimes(tr *tracer) {
	self := tr.selfTimes(layerOf)
	wall := tr.spans[0].End - tr.spans[0].Start
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return self[layers[a]] > self[layers[b]] })
	fmt.Printf("self time by layer over %.0f ms traced wall (concurrent jobs add up past it):\n", float64(wall)/1e6)
	for _, l := range layers {
		fmt.Printf("  %-10s %9.1f ms %5.1f%%\n", l, float64(self[l])/float64(time.Millisecond), 100*float64(self[l])/float64(wall))
	}
	// The benchmark's own share, by stage: what the spans do not cover.
	byName := tr.selfTimes(func(n string) string { return n })
	for _, stage := range []string{"setup", "compile", "check", "simulate", "serve", "probes"} {
		fmt.Printf("    bench.%-10s %7.1f ms\n", stage, float64(byName["bench."+stage])/float64(time.Millisecond))
	}
}

// printResult prints every metric by name with its unit.
func printResult(name string, trace bool, res *result) {
	fmt.Printf("workload %s (trace %v): %d operations, %d failed\n", name, trace, res.Attempted, res.Failed)
	for _, d := range defsFor(trace) {
		s := res.Metrics[d.name]
		if s.N > 1 {
			fmt.Printf("  %-34s %14.6g %-8s (n=%d, q1 %.6g, q3 %.6g)\n", d.name, s.Median, s.Unit, s.N, s.Q1, s.Q3)
		} else {
			fmt.Printf("  %-34s %14.6g %s\n", d.name, s.Median, s.Unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	for _, p := range res.Problems {
		fmt.Println("  PROBLEM:", p)
	}
}
