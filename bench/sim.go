package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"dedupsim/internal/codegen"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

// simCase is one simulation to run: a compiled design, a seeded stimulus,
// a cycle count, and the engine form (lanes 0 = scalar sim.Engine). The
// run is timed in chunks of `chunk` cycles (0 = one chunk).
type simCase struct {
	design string
	wl     stimulus.Workload
	cycles int
	lanes  int
	chunk  int
}

// simOut is what one run of a simCase leaves: host time and the simulated
// statistics, which must be the same on every trial.
type simOut struct {
	dur     time.Duration
	driveT  time.Duration // traced runs: the part of dur spent in the drive calls
	nsCycle []float64     // host ns per engine cycle, one value per chunk
	digests []uint64      // final outputs + registers, one per lane
	acts    int64         // lane 0
	skipped int64
	dyn     int64
	outputs map[string]string // lane 0, in farm.SimStats.Outputs form
}

// engines keeps one engine per compiled program resident across trials, as
// a user's process would, so live_heap_mb sees them.
type engines struct {
	scalar map[*compiled]*sim.Engine
	batch  map[*compiled]*sim.BatchEngine
}

func newEngines() *engines {
	return &engines{scalar: map[*compiled]*sim.Engine{}, batch: map[*compiled]*sim.BatchEngine{}}
}

func (es *engines) scalarFor(cv *compiled) *sim.Engine {
	e := es.scalar[cv]
	if e == nil {
		e = sim.New(cv.cv.Program, true)
		es.scalar[cv] = e
	}
	e.Reset()
	return e
}

func (es *engines) batchFor(cv *compiled, lanes int) (*sim.BatchEngine, error) {
	be := es.batch[cv]
	if be == nil || be.Lanes() != lanes {
		var err error
		if be, err = sim.NewBatch(cv.cv.Program, true, lanes); err != nil {
			return nil, err
		}
		es.batch[cv] = be
	}
	be.Reset()
	return be, nil
}

// runCase simulates sc on cv from reset and times the cycle loop chunk by
// chunk. With a tracer it also splits every chunk into drive and step
// time: three clock reads per cycle, two spans per chunk.
func (es *engines) runCase(tr *tracer, cv *compiled, sc simCase) (simOut, error) {
	var drive func(cyc int)
	var step func()
	var finish func(*simOut)
	if sc.lanes == 0 {
		e := es.scalarFor(cv)
		drive, step = sc.wl.NewEngineDrive(e), e.Step
		finish = func(o *simOut) {
			o.digests = []uint64{digest(cv.cv.Program, e.Slot)}
			o.acts, o.skipped, o.dyn = e.ActsExecuted, e.ActsSkipped, e.DynInstrs
			o.outputs = map[string]string{}
			for _, id := range cv.c.Outputs() {
				if v, err := e.Output(cv.c.Names[id]); err == nil {
					o.outputs[cv.c.Names[id]] = fmt.Sprintf("%#x", v)
				}
			}
		}
	} else {
		be, err := es.batchFor(cv, sc.lanes)
		if err != nil {
			return simOut{}, err
		}
		drives := make([]func(int), sc.lanes)
		for l := range drives {
			drives[l] = sc.wl.Lane(l).NewLaneDrive(be, l)
		}
		drive = func(cyc int) {
			for _, d := range drives {
				d(cyc)
			}
		}
		step = be.Step
		finish = func(o *simOut) {
			for l := 0; l < sc.lanes; l++ {
				l := l
				o.digests = append(o.digests, digest(cv.cv.Program, func(s int32) uint64 { return be.Slot(l, s) }))
			}
			o.acts, o.skipped, o.dyn = be.ActsExecuted[0], be.ActsSkipped[0], be.DynInstrs[0]
		}
	}

	var out simOut
	sp := tr.begin("bench.trial", sc.design)
	start := time.Now()
	chunk := sc.chunk
	if chunk <= 0 {
		chunk = sc.cycles
	}
	for base := 0; base < sc.cycles; base += chunk {
		end := min(base+chunk, sc.cycles)
		c0 := time.Now()
		if tr == nil {
			for cyc := base; cyc < end; cyc++ {
				drive(cyc)
				step()
			}
		} else {
			var driveT, stepT time.Duration
			t := c0
			for cyc := base; cyc < end; cyc++ {
				drive(cyc)
				t1 := time.Now()
				step()
				t2 := time.Now()
				driveT += t1.Sub(t)
				stepT += t2.Sub(t1)
				t = t2
			}
			out.driveT += driveT
			tr.add("stimulus.drive", sc.design, sp, 0, c0, driveT)
			tr.add("sim.step", sc.design, sp, 0, c0.Add(driveT), stepT)
		}
		out.nsCycle = append(out.nsCycle, float64(time.Since(c0))/float64(end-base))
	}
	out.dur = time.Since(start)
	tr.end(sp)
	finish(&out)
	return out, nil
}

// digest folds every top-level output and every register into one value.
// Outputs and registers are listed in circuit node order by every variant's
// Program, so equal digests mean equal architectural state.
func digest(p *codegen.Program, slot func(int32) uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, o := range p.Outputs {
		put(slot(o.Slot))
	}
	for _, r := range p.Regs {
		put(slot(r.Cur))
	}
	return h.Sum64()
}

// stimulusDigest folds the first cycles of a stimulus stream: a second
// --seed must change it while every compiler count stays put.
func stimulusDigest(wl stimulus.Workload, cycles int) uint64 {
	h := fnv.New64a()
	vals := wl.NewValues()
	for cyc := 0; cyc < cycles; cyc++ {
		s, v := vals(cyc)
		fmt.Fprintf(h, "%x.%x,", s, v)
	}
	return h.Sum64()
}

// checkAgainstRef steps sim.Ref (the independent interpreter) and both
// variants' engines side by side and compares every top-level output on
// every cycle, then the variants' final digests. It returns one problem
// per disagreeing engine and the host time spent in Ref.Step.
func (es *engines) checkAgainstRef(tr *tracer, essent, dedup *compiled, wl stimulus.Workload, cycles int) (problems []string, refTime time.Duration, err error) {
	ref, err := sim.NewRef(dedup.c)
	if err != nil {
		return nil, 0, err
	}
	type side struct {
		name  string
		e     *sim.Engine
		drive func(int)
		bad   bool
	}
	var sides []*side
	for _, cv := range []*compiled{essent, dedup} {
		e := es.scalarFor(cv)
		sides = append(sides, &side{name: string(cv.cv.Variant), e: e, drive: wl.NewEngineDrive(e)})
	}
	var names []string
	for _, id := range dedup.c.Outputs() {
		names = append(names, dedup.c.Names[id])
	}
	refDrive := wl.NewDrive()
	sp := tr.begin("sim.ref", dedup.name)
	for cyc := 0; cyc < cycles; cyc++ {
		refDrive(ref, cyc)
		t0 := time.Now()
		ref.Step()
		refTime += time.Since(t0)
		for _, s := range sides {
			s.drive(cyc)
			s.e.Step()
		}
		for _, n := range names {
			want, _ := ref.Output(n)
			for _, s := range sides {
				if got, _ := s.e.Output(n); got != want && !s.bad {
					s.bad = true
					problems = append(problems, fmt.Sprintf("%s %s: output %s = %#x at cycle %d, sim.Ref has %#x", dedup.name, s.name, n, got, cyc, want))
				}
			}
		}
	}
	tr.end(sp)
	if a, b := digest(essent.cv.Program, sides[0].e.Slot), digest(dedup.cv.Program, sides[1].e.Slot); a != b {
		problems = append(problems, fmt.Sprintf("%s: ESSENT and Dedup state digests differ after %d cycles (%#x vs %#x)", dedup.name, cycles, a, b))
	}
	return problems, refTime, nil
}
