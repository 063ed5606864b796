package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"dedupsim/internal/farm"
	"dedupsim/internal/harness"
	"dedupsim/internal/stimulus"
)

// defaultSeed is the seed the committed ledger was measured with.
const defaultSeed = 20240427

type options struct {
	seed    uint64
	seconds float64 // 0 = exactly the minimum trial counts (the -quick test size)
	trace   bool
	quick   bool
	workdir string
}

// result is one run of one workload.
type result struct {
	Correct        bool              `json:"correct"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	Metrics        map[string]Sample `json:"metrics"`
	Problems       []string          `json:"problems,omitempty"`
	Notes          []string          `json:"notes,omitempty"`
	StimulusDigest string            `json:"stimulus_digest"`
	TraceFile      string            `json:"trace_file,omitempty"`

	tr *tracer // the traced run's spans, for the self-time listing
}

// run is the state of one workload's pass through the pipeline.
type run struct {
	w       workload
	opt     options
	seconds float64 // time for the repeating stages
	tr      *tracer
	in      *inputs
	es      *engines

	attempted, failed int
	problems, notes   []string
	samples           map[string][]float64 // metric -> one value per trial
	counts            map[string]float64   // exact compiler counts of the first compile

	dedup, essent map[string]*compiled // by design name
	compileWall   map[string][]float64 // Dedup compile seconds per design, one per trial
	// refs holds direct scalar-engine results of sampled job cases, by case
	// index then variant: what the service tier's results must equal.
	refs      map[int]map[string]simOut
	refTime   time.Duration
	refCycles int
	// chunksD, chunksE and chunksT are the simulate stage's timings of the
	// Dedup, ESSENT and traced Dedup passes.
	chunksD, chunksE, chunksT chunkSamples
	driveNs                   float64
	firstDedup                []simOut
	firstEss                  []simOut
	cases                     []simCase
	farmPass                  *served
	fleetPass                 *served
	traceFile                 string
}

func (r *run) rec(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// until reports whether a repeating stage should run another trial: always
// up to min, then for as long as its share of the run's seconds lasts.
func until(start time.Time, budget float64, done, min int) bool {
	return done < min || time.Since(start).Seconds() < budget
}

func (r *run) stim() stimulus.Workload {
	wl := stimulus.VVAddA()
	if r.w.stim == "B" {
		wl = stimulus.VVAddB()
	}
	return wl.WithSeed(r.in.stimSeed)
}

func runWorkload(w workload, opt options) (*result, error) {
	if opt.quick {
		w = w.quick()
	}
	r := &run{w: w, opt: opt, seconds: opt.seconds, es: newEngines(),
		samples: map[string][]float64{}, dedup: map[string]*compiled{}, essent: map[string]*compiled{},
		refs: map[int]map[string]simOut{}, compileWall: map[string][]float64{}}
	if opt.trace {
		// The traced run is a quarter the length (cycles per trial, jobs
		// per pass) and half the time: it also has to fit both service
		// tiers and the layer probes.
		r.seconds /= 2
		r.w.simCycles = max(64, w.simCycles/4)
		r.tr = newTracer()
	}
	root := r.tr.begin("bench.run", w.name)
	err := r.pipeline()
	r.tr.end(root)
	if r.in != nil {
		os.RemoveAll(r.in.dir)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r.finish()
}

func (r *run) pipeline() error {
	for _, stage := range []struct {
		name string
		f    func() error
	}{
		{"bench.setup", r.stageSetup}, {"bench.compile", r.stageCompile}, {"bench.check", r.stageCheck},
		{"bench.simulate", r.stageSimulate}, {"bench.serve", r.stageServe}, {"bench.probes", r.stageProbes},
	} {
		sp := r.tr.begin(stage.name, r.w.name)
		err := stage.f()
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", stage.name, err)
		}
	}
	return nil
}

// njobs scales the service mix with --seconds and keeps it long enough
// that ten jobs lie beyond p95.
func (r *run) njobs() int {
	if r.opt.quick {
		return r.w.svc.jobs
	}
	n := int(float64(r.w.svc.jobs) * r.opt.seconds / 10)
	floor := 220
	if r.opt.trace {
		n, floor = n/4, 60
	}
	return max(n, floor) &^ 1 // even: every case is one job per variant
}

// passes is how many times the service stage runs its job list.
func (r *run) passes() int {
	if r.opt.trace || r.opt.quick {
		return 1
	}
	return r.w.svc.passes
}

// setups is how often set-up is repeated: it takes milliseconds, so one
// reading of it is mostly the host's noise.
const setups = 51

// stageSetup builds the inputs over and over and keeps the last: FIRRTL
// text, job lists, scratch directory — everything before the first timed
// region. setup_s is the median.
func (r *run) stageSetup() error {
	for i := 0; i < setups; i++ {
		if r.in != nil {
			os.RemoveAll(r.in.dir)
		}
		// Collect first: a set-up allocates a few megabytes, and whether a
		// collection happens to start inside it would decide its time.
		gc := r.tr.begin("runtime.gc", "")
		runtime.GC()
		r.tr.end(gc)
		sp := r.tr.begin("gen.inputs", r.w.name)
		t0 := time.Now()
		in, err := r.w.setup(r.opt.seed, r.njobs(), r.passes(), r.opt.workdir)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		r.rec("setup_s", time.Since(t0).Seconds())
		r.in = in
	}
	return nil
}

// stageCompile compiles the design set from FIRRTL text, repeatedly. Every
// trial is the whole set; compile_s is the Dedup variant's time summed over
// the designs, each design at its median over the trials. Counts must not
// change between trials: the compiler is deterministic or it fails.
func (r *run) stageCompile() error {
	start := time.Now()
	for trial := 0; until(start, r.w.compileShare*r.seconds, trial, 2); trial++ {
		var stages, counts []map[string]float64
		for _, d := range r.w.designs {
			name := d.String()
			cd, err := compileDesign(r.tr, name, r.in.src[name], harness.Dedup)
			if err != nil {
				return err
			}
			r.attempted++
			r.compileWall[name] = append(r.compileWall[name], cd.wall.Seconds())
			stages, counts = append(stages, cd.stages), append(counts, cd.counts)
			if trial == 0 {
				r.dedup[name] = cd
			}
			// The ESSENT compile is timed per layer only, so end-to-end
			// runs need it once, for the simulate stage's pairs.
			if trial == 0 || r.opt.trace {
				ce, err := compileDesign(r.tr, name, r.in.src[name], harness.ESSENT)
				if err != nil {
					return err
				}
				r.attempted++
				// Only what the ESSENT flow does differently is its own
				// metric; the shared stages are reported from Dedup's compile.
				stages = append(stages, map[string]float64{
					"partition.baseline_ms": ce.stages["partition.baseline_ms"],
					"sched.baseline_ms":     ce.stages["sched.baseline_ms"],
				})
				counts = append(counts, ce.counts)
				if trial == 0 {
					r.essent[name] = ce
				}
			}
		}
		sum := sumOver(stages)
		for k, v := range sum {
			r.rec(k, v)
		}
		if base := sum["partition.baseline_ms"]; base > 0 {
			r.rec("dedup.vs_baseline_ratio", sum["dedup.deduplicate_ms"]/base)
		}
		c := sumOver(counts)
		if trial == 0 {
			r.counts = c
		} else if !sameCounts(r.counts, c) {
			r.fail("compile trial %d: counts differ from the first compile: %v vs %v", trial, c, r.counts)
		}
	}
	return nil
}

// sameCounts compares the keys both compiles produced (end-to-end trials
// after the first skip the ESSENT compile and its counts).
func sameCounts(a, b map[string]float64) bool {
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// stageCheck is the correctness gate on the compiled programs themselves:
// per-cycle outputs against sim.Ref for both variants of every design, and
// on the batch workload every lane against a scalar run of its seed.
func (r *run) stageCheck() error {
	for _, d := range r.w.designs {
		name := d.String()
		problems, refTime, err := r.es.checkAgainstRef(r.tr, r.essent[name], r.dedup[name], r.stim(), r.w.checkCycles)
		if err != nil {
			return err
		}
		r.attempted += 2
		for _, p := range problems {
			r.fail("%s", p)
		}
		r.refTime += refTime
		r.refCycles += r.w.checkCycles
		if r.w.lanes > 0 {
			if err := r.checkLanes(r.dedup[name], r.w.lanes, r.w.checkCycles); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkLanes requires lane i of a batch run to end in the state a scalar
// engine reaches on lane i's stimulus.
func (r *run) checkLanes(cv *compiled, lanes, cycles int) error {
	sp := r.tr.begin("sim.lanecheck", cv.name)
	defer r.tr.end(sp)
	b, err := r.es.runCase(nil, cv, simCase{design: cv.name, wl: r.stim(), cycles: cycles, lanes: lanes})
	if err != nil {
		return err
	}
	for l := 0; l < lanes; l++ {
		s, err := r.es.runCase(nil, cv, simCase{design: cv.name, wl: r.stim().Lane(l), cycles: cycles})
		if err != nil {
			return err
		}
		r.attempted++
		if s.digests[0] != b.digests[l] {
			r.fail("%s: batch lane %d of %d ends in %#x, a scalar run of its seed in %#x", cv.name, l, lanes, b.digests[l], s.digests[0])
		}
	}
	return nil
}

// pass runs every case once on one variant, after a GC so that no pass
// pays for the garbage of the one before.
func (r *run) pass(v harness.Variant, detail bool) ([]simOut, error) {
	progs := r.dedup
	if v == harness.ESSENT {
		progs = r.essent
	}
	gc := r.tr.begin("runtime.gc", "")
	runtime.GC()
	r.tr.end(gc)
	var outs []simOut
	var chunkTracer *tracer // nil: one sim.run span per case, no per-chunk spans
	if detail {
		chunkTracer = r.tr
	}
	for _, sc := range r.cases {
		sp := r.tr.begin("sim.run", sc.design)
		o, err := r.es.runCase(chunkTracer, progs[sc.design], sc)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.attempted++
		outs = append(outs, o)
		r.driveNs += float64(o.driveT)
	}
	r.compareTrial(v, outs)
	return outs, nil
}

// chunkSamples is host ns per engine cycle, per case, one value per chunk.
type chunkSamples [][]float64

func samplesOf(outs []simOut) chunkSamples {
	cs := make(chunkSamples, len(outs))
	for i, o := range outs {
		cs[i] = o.nsCycle
	}
	return cs
}

func (cs *chunkSamples) merge(more chunkSamples) {
	if *cs == nil {
		*cs = make(chunkSamples, len(more))
	}
	for i, m := range more {
		(*cs)[i] = append((*cs)[i], m...)
	}
}

// khz turns chunk samples into simulated kilocycles (lane-cycles on the
// batch engine) per host second: each case's cycles at the case's picked
// ns-per-cycle — the median, for the headline — summed over the cases.
// On a shared host interference only ever slows a chunk down, and the
// median chunk shrugs off what a total over the trial would absorb.
func (r *run) khz(cs chunkSamples, pick func([]float64) float64) float64 {
	var laneCycles, ns float64
	for i, sc := range r.cases {
		laneCycles += float64(sc.cycles * max(1, sc.lanes))
		ns += float64(sc.cycles) * pick(cs[i])
	}
	return laneCycles / ns * 1e6
}

func (r *run) khzSample(cs chunkSamples) Sample {
	n := 0
	for _, c := range cs {
		n += len(c)
	}
	q := func(i int) func([]float64) float64 {
		return func(v []float64) float64 { a, b, c := quartiles(v); return [3]float64{a, b, c}[i] }
	}
	// The slow quartile of ns-per-cycle is the low quartile of kHz.
	return Sample{N: n, Median: r.khz(cs, q(1)), Q1: r.khz(cs, q(2)), Q3: r.khz(cs, q(0))}
}

// stageSimulate runs interleaved ESSENT/Dedup trial pairs of fixed work.
// Which variant goes first alternates, a GC precedes every pass, and every
// trial must reproduce the first trial's state digests and counters.
func (r *run) stageSimulate() error {
	var sampled []int
	if r.w.sampleCases > 0 {
		// Service workloads simulate a sample of their own job cases; the
		// results double as the references the tier's answers must equal.
		sampled = r.sample(r.w.sampleCases)
		for _, idx := range sampled {
			c := r.in.cases[idx]
			r.cases = append(r.cases, simCase{design: c.design, wl: c.workload(), cycles: c.cycles, chunk: r.w.chunkCycles})
		}
	} else {
		for _, d := range r.w.designs {
			r.cases = append(r.cases, simCase{design: d.String(), wl: r.stim(), cycles: r.w.simCycles, lanes: r.w.lanes, chunk: r.w.chunkCycles})
		}
	}
	start := time.Now()
	for pair := 0; until(start, r.w.simShare*r.seconds, pair, 3); pair++ {
		order := []harness.Variant{harness.ESSENT, harness.Dedup}
		if pair%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		one := map[harness.Variant]chunkSamples{}
		for _, v := range order {
			outs, err := r.pass(v, false)
			if err != nil {
				return err
			}
			one[v] = samplesOf(outs)
		}
		r.chunksD.merge(one[harness.Dedup])
		r.chunksE.merge(one[harness.ESSENT])
		r.rec("sim.dedup_vs_essent", r.khz(one[harness.Dedup], median)/r.khz(one[harness.ESSENT], median))
		if r.opt.trace {
			outs, err := r.pass(harness.Dedup, true)
			if err != nil {
				return err
			}
			r.chunksT.merge(samplesOf(outs))
		}
	}
	for i, idx := range sampled {
		r.refs[idx] = map[string]simOut{"Dedup": r.firstDedup[i], "ESSENT": r.firstEss[i]}
	}
	r.measureHeap()
	return nil
}

// compareTrial holds a pass against the first passes: the same digests and
// counters as its own variant's first, the same digests as the other
// variant's.
func (r *run) compareTrial(v harness.Variant, outs []simOut) {
	first, other := &r.firstDedup, r.firstEss
	if v == harness.ESSENT {
		first, other = &r.firstEss, r.firstDedup
	}
	if *first == nil {
		*first = outs
	}
	for i, o := range outs {
		if f := (*first)[i]; !reflect.DeepEqual(o.digests, f.digests) || o.acts != f.acts || o.dyn != f.dyn {
			r.fail("%s %s: trial state differs from the first trial (acts %d vs %d)", r.cases[i].design, v, o.acts, f.acts)
		}
		if other != nil && !reflect.DeepEqual(o.digests, other[i].digests) {
			r.fail("%s: Dedup and ESSENT end in different states", r.cases[i].design)
		}
	}
}

// sample picks which job cases are also run directly: the first k of the
// list, taken evenly from every (design, stimulus) class so that the
// sample's work does not depend on the seed's luck.
func (r *run) sample(k int) []int {
	per := max(1, k/(2*len(r.w.svc.designs)))
	taken := map[string]int{}
	var idx []int
	for i, c := range r.in.cases {
		if class := c.design + c.stim; taken[class] < per {
			taken[class]++
			idx = append(idx, i)
		}
	}
	return idx
}

// measureHeap records the live heap at the end of the simulate stage, with
// the workload's programs and engines resident.
func (r *run) measureHeap() {
	sp := r.tr.begin("runtime.gc", "")
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.tr.end(sp)
	r.rec("live_heap_mb", float64(m.HeapAlloc)/1e6)
}

// stageServe pushes the job mix through the service tier — the farm, or on
// fleet-mix the router — once per pass, each pass on a freshly opened
// tier so every pass is the same cold-cache sweep; the job metrics are
// medians over the passes. A traced run does one pass of each tier on the
// same jobs, so the router's cost is their difference.
func (r *run) stageServe() error {
	for _, list := range r.in.lists {
		var primary *served
		var err error
		if !r.w.svc.fleet || r.opt.trace {
			if primary, err = serveFarm(r.tr, list.jobs, r.in.dir, r.opt.trace); err != nil {
				return err
			}
			r.farmPass = primary
		}
		if r.w.svc.fleet || r.opt.trace {
			if r.fleetPass, err = serveFleet(r.tr, list.jobs, r.in.dir); err != nil {
				return err
			}
			if r.w.svc.fleet {
				primary = r.fleetPass
			}
		}
		r.rec("sweep_khz", primary.sweepKhz())
		r.rec("job_p50_ms", percentile(primary.latMs, 50))
		r.rec("job_p95_ms", percentile(primary.latMs, 95))
		sp := r.tr.begin("sim.verify", r.w.name)
		for _, s := range []*served{r.farmPass, r.fleetPass} {
			if s != nil && err == nil {
				err = r.verifyServed(s, list)
			}
		}
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyServed is the correctness gate on the service tier: every job done,
// both variants of a case with equal final outputs, and sampled cases
// equal — outputs and activation counters — to a direct scalar run.
func (r *run) verifyServed(s *served, list jobList) error {
	if len(r.refs) == 0 {
		// The canary mix was not simulated directly yet: do a few now.
		for _, idx := range r.sample(6) {
			c := r.in.cases[idx]
			r.refs[idx] = map[string]simOut{}
			for _, v := range []harness.Variant{harness.Dedup, harness.ESSENT} {
				cv, err := r.svcCompiled(c.design, v)
				if err != nil {
					return err
				}
				o, err := r.es.runCase(nil, cv, simCase{design: c.design, wl: c.workload(), cycles: c.cycles})
				if err != nil {
					return err
				}
				r.refs[idx][string(v)] = o
			}
		}
	}
	byCase := map[int]*farm.SimStats{}
	for i, v := range s.views {
		r.attempted++
		switch {
		case s.errs[i] != nil:
			r.fail("%s job %d: %v", s.tier, i, s.errs[i])
			continue
		case v.Status != farm.StatusDone || v.Stats == nil:
			r.fail("%s job %s: status %s: %s", s.tier, v.ID, v.Status, v.Error)
			continue
		}
		c := list.caseOf[i]
		if v.Stats.Cycles != int64(r.in.cases[c].cycles) {
			r.fail("%s job %s: ran %d cycles of %d", s.tier, v.ID, v.Stats.Cycles, r.in.cases[c].cycles)
		}
		if other, ok := byCase[c]; ok && !reflect.DeepEqual(other.Outputs, v.Stats.Outputs) {
			r.fail("%s job %s: outputs differ from the %s run of the same case", s.tier, v.ID, other.Variant)
		}
		byCase[c] = v.Stats
		if ref, ok := r.refs[c][v.Spec.Variant]; ok {
			if !reflect.DeepEqual(ref.outputs, v.Stats.Outputs) || ref.acts != v.Stats.ActsExecuted || ref.dyn != v.Stats.DynInstrs {
				r.fail("%s job %s: result differs from a direct %s run (acts %d vs %d)", s.tier, v.ID, v.Spec.Variant, v.Stats.ActsExecuted, ref.acts)
			}
		}
	}
	return nil
}

// svcCompiled compiles a service-mix design on demand (the canary's design
// is not part of the workload's own design set).
func (r *run) svcCompiled(name string, v harness.Variant) (*compiled, error) {
	progs := r.dedup
	if v == harness.ESSENT {
		progs = r.essent
	}
	if cv, ok := progs[name]; ok {
		return cv, nil
	}
	cv, err := compileDesign(r.tr, name, r.in.src[name], v)
	if err == nil {
		progs[name] = cv
	}
	return cv, err
}
