package main

import (
	"fmt"
	"hash/fnv"
	"os"

	"dedupsim/internal/farm"
	"dedupsim/internal/gen"
	"dedupsim/internal/stimulus"
)

// design names one generated SoC at one generator scale.
type design struct {
	family gen.Family
	cores  int
	scale  float64
}

func (d design) String() string { return fmt.Sprintf("%s-%dC@%.2g", d.family, d.cores, d.scale) }

// mix is a job list for the service tier: jobs/2 cases (design, stimulus,
// seed), each submitted once per variant, over three weighted tenants.
type mix struct {
	designs []design
	jobs    int // at the default --seconds; scaled with it
	cycles  int
	passes  int  // whole passes of the list per untraced run, each through a fresh tier
	fleet   bool // through the router and two one-worker nodes, else one two-worker farm
}

// workload is one parameter set of the benchmark's single pipeline
// (set-up, compile, check, simulate, serve). Every workload reports every
// metric; what differs is which design the stages see and which stage
// gets the time.
type workload struct {
	name string
	why  string
	// designs are compiled, checked against sim.Ref and simulated;
	// designs[0] is the one the layer probes run on.
	designs []design
	stim    string // "A" (~16% activity) or "B" for the simulate stage
	lanes   int    // 0 = scalar sim.Engine, else sim.BatchEngine lanes
	// simCycles is one simulate trial per design; checkCycles is how long
	// every engine is compared per cycle with sim.Ref.
	simCycles   int
	checkCycles int
	// chunkCycles is the unit the simulate stage times: about 40 ms of
	// stepping, so a trial yields a dozen samples and a neighbour's burst
	// on a shared host spoils some chunks, not the trial.
	chunkCycles int
	// compileShare and simShare split --seconds between the two stages
	// that repeat fixed-work trials until their time is used; the service
	// stage is a fixed number of jobs.
	compileShare, simShare float64
	svc                    mix
	// sampleCases, when > 0, replaces the per-design simulate trial by
	// that many cases drawn from the job mix, run directly on the scalar
	// engine: the service workloads' reference results.
	sampleCases int
}

// jobCycles is past the farms' CheckpointEvery of 2048, so every job takes
// exactly one checkpoint.
const jobCycles = 2200

// canary is the small farm mix the non-service workloads run so that the
// job metrics exist, and mean the same thing, on every workload.
var canary = mix{designs: []design{{gen.Rocket, 2, 0.1}}, jobs: 220, cycles: jobCycles, passes: 5}

// serviceDesigns: three designs small enough that a job is dominated by
// the farm's own per-job work (re-elaboration, hashing, journal, queueing)
// as much as by stepping.
var serviceDesigns = []design{{gen.Rocket, 2, 0.1}, {gen.Rocket, 4, 0.1}, {gen.SmallBoom, 2, 0.1}}

var sweepDesigns = func() []design {
	var ds []design
	for _, f := range gen.Families {
		for _, cores := range []int{2, 4, 8} {
			ds = append(ds, design{f, cores, 0.5})
		}
	}
	return ds
}()

var workloads = []workload{
	{
		name:    "single-large",
		why:     "MegaBoom-8C at scale 1: bytecode exceeds the private caches, the one place dedup/sched locality can reach the wall clock",
		designs: []design{{gen.MegaBoom, 8, 1.0}}, stim: "B",
		simCycles: 2000, chunkCycles: 125, checkCycles: 200, compileShare: 0.25, simShare: 0.65, svc: canary,
	},
	{
		name:    "single-small",
		why:     "SmallBoom-4C at scale 0.3, low activity: all in cache, so the dedup tax and per-cycle overhead dominate; bypasses locality",
		designs: []design{{gen.SmallBoom, 4, 0.3}}, stim: "A",
		simCycles: 50000, chunkCycles: 5000, checkCycles: 500, compileShare: 0.1, simShare: 0.8, svc: canary,
	},
	{
		name:    "batch-lanes",
		why:     "LargeBoom-4C at scale 0.5 on 16 lockstep lanes with per-lane seeds: the sim layer used the other way, guards the batch path",
		designs: []design{{gen.LargeBoom, 4, 0.5}}, stim: "B", lanes: 16,
		simCycles: 1200, chunkCycles: 100, checkCycles: 300, compileShare: 0.1, simShare: 0.8, svc: canary,
	},
	{
		name:    "compile-sweep",
		why:     "four families x 2/4/8 cores at scale 0.5: the compile layers do nearly all the work and sim almost none",
		designs: sweepDesigns, stim: "B",
		simCycles: 200, chunkCycles: 50, checkCycles: 200, compileShare: 0.7, simShare: 0.2, svc: canary,
	},
	{
		name:    "farm-mix",
		why:     "closed loop, window 8, 3 designs x 2 variants x 2 stimuli x 3 tenants through one durable farm: queue, cache, journal, checkpoints",
		designs: serviceDesigns, stim: "B",
		simCycles: jobCycles, chunkCycles: 550, checkCycles: 200, compileShare: 0.1, simShare: 0.3,
		svc: mix{designs: serviceDesigns, jobs: 260, cycles: jobCycles, passes: 4}, sampleCases: 12,
	},
	{
		name:    "fleet-mix",
		why:     "the farm-mix jobs through the router and two one-worker nodes: placement, forwarding, heartbeat visibility, artifact replication",
		designs: serviceDesigns, stim: "B",
		simCycles: jobCycles, chunkCycles: 550, checkCycles: 200, compileShare: 0.1, simShare: 0.3,
		svc: mix{designs: serviceDesigns, jobs: 220, cycles: jobCycles, passes: 2, fleet: true}, sampleCases: 12,
	},
}

// quick shrinks a workload to Rocket-2C at scale 0.1 for the package test:
// every stage still runs, at the smallest size that yields every metric.
func (w workload) quick() workload {
	tiny := design{gen.Rocket, 2, 0.1}
	w.designs = []design{tiny}
	if w.name == "compile-sweep" {
		w.designs = append(w.designs, design{gen.SmallBoom, 2, 0.1})
	}
	w.simCycles, w.chunkCycles, w.checkCycles = 300, 100, 50
	w.svc = mix{designs: []design{tiny}, jobs: 24, cycles: 200, passes: 1, fleet: w.svc.fleet}
	if w.sampleCases > 0 {
		w.sampleCases = 4
	}
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng is splitmix64: every stimulus seed, the job order and the tenant
// assignment come from one --seed through it.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// seed is a non-zero draw: stimulus.Workload.WithSeed treats 0 as "keep
// the default", which would detach a stimulus from --seed.
func (r *rng) seed() uint64 {
	for {
		if s := r.next(); s != 0 {
			return s
		}
	}
}

// derive gives each use of the seed its own stream.
func derive(seed uint64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: seed ^ h.Sum64()}
}

var tenants = []string{"t1", "t2", "t2", "t3"} // a draw of 4 weights t2 twice: shares 1:2:1

// jobCase is one (design, stimulus, seed, cycles): the unit whose results
// must agree wherever and under whichever variant it runs.
type jobCase struct {
	design string
	stim   string
	seed   uint64
	cycles int
}

func (c jobCase) workload() stimulus.Workload {
	wl := stimulus.VVAddA()
	if c.stim == "B" {
		wl = stimulus.VVAddB()
	}
	return wl.WithSeed(c.seed)
}

// inputs is everything set-up hands the program: FIRRTL text, the job
// list, and a scratch directory. The program never sees the seed.
type inputs struct {
	src      map[string]string // design name -> FIRRTL text
	stimSeed uint64            // simulate-stage stimulus
	cases    []jobCase         // one per pair of jobs
	lists    []jobList         // one per pass of the service stage
	dir      string
}

// jobList is the cases in one submission order: every case once per
// variant, tenants drawn 1:2:1, shuffled. Each pass gets its own order and
// tenant draw, so the job metrics average over orders instead of
// inheriting the luck of one.
type jobList struct {
	jobs   []farm.JobSpec
	caseOf []int // jobs[i] runs cases[caseOf[i]]
}

func (w workload) setup(seed uint64, njobs, passes int, workdir string) (*inputs, error) {
	in := &inputs{src: map[string]string{}, stimSeed: derive(seed, "stim").seed()}
	for _, ds := range [][]design{w.designs, w.svc.designs} {
		for _, d := range ds {
			if _, ok := in.src[d.String()]; !ok {
				in.src[d.String()] = gen.GenerateFIRRTL(gen.Config(d.family, d.cores, d.scale))
			}
		}
	}
	r := derive(seed, "cases")
	for i := 0; i < njobs/2; i++ {
		c := jobCase{design: w.svc.designs[r.intn(len(w.svc.designs))].String(), stim: "A", seed: r.seed(), cycles: w.svc.cycles}
		if r.intn(2) == 1 {
			c.stim = "B"
		}
		in.cases = append(in.cases, c)
	}
	for pass := 0; pass < passes; pass++ {
		r := derive(seed, fmt.Sprint("order-", pass))
		var l jobList
		for i, c := range in.cases {
			for _, variant := range []string{"Dedup", "ESSENT"} {
				l.jobs = append(l.jobs, farm.JobSpec{
					DesignSpec: farm.DesignSpec{FIRRTL: in.src[c.design]},
					Variant:    variant, Workload: c.stim, Seed: c.seed, Cycles: c.cycles,
					Tenant: tenants[r.intn(len(tenants))],
				})
				l.caseOf = append(l.caseOf, i)
			}
		}
		for i := len(l.jobs) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			l.jobs[i], l.jobs[j] = l.jobs[j], l.jobs[i]
			l.caseOf[i], l.caseOf[j] = l.caseOf[j], l.caseOf[i]
		}
		in.lists = append(in.lists, l)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	in.dir = dir
	return in, nil
}
