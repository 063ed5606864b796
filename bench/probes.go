package main

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"time"

	"dedupsim/internal/durable"
	"dedupsim/internal/farm"
	"dedupsim/internal/harness"
	"dedupsim/internal/obs"
	"dedupsim/internal/perfmodel"
	"dedupsim/internal/sim"
)

// timed runs f under a span and returns its host milliseconds.
func (r *run) timed(span, id string, f func() error) (float64, error) {
	sp := r.tr.begin(span, id)
	t0 := time.Now()
	err := f()
	ms := float64(time.Since(t0)) / 1e6
	r.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", span, err)
	}
	return ms, nil
}

// stageProbes, traced runs only, times the public calls the pipeline does
// not reach by itself, each on the workload's first design: the other
// engine forms, snapshots, the host model, artifacts, the journal under
// each fsync policy, and the scheduler and histogram primitives. Probe
// sizes are fixed per workload so the counts they yield repeat exactly.
func (r *run) stageProbes() error {
	if !r.opt.trace {
		return nil
	}
	for _, probe := range []func() error{r.probeCounts, r.probeEngines, r.probeSnapshot, r.probePerfmodel, r.probeFarm, r.probeDurable, r.probePrimitives} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// probeCounts repeats the simulate cases on scalar Dedup engines with the
// public OnActivation hook set, to count the bytecode instructions the
// interpreter dispatches (fused instructions count once).
func (r *run) probeCounts() error {
	var instrs, cycles int64
	_, err := r.timed("sim.count", r.w.name, func() error {
		for _, sc := range r.cases {
			prog := r.dedup[sc.design].cv.Program
			e := sim.New(prog, true)
			e.OnActivation = func(act int32) { instrs += int64(len(prog.Kernels[prog.Activations[act].Kernel].Code)) }
			drive := sc.wl.NewEngineDrive(e)
			for cyc := 0; cyc < sc.cycles; cyc++ {
				drive(cyc)
				e.Step()
			}
			cycles += int64(sc.cycles)
		}
		return nil
	})
	r.rec("sim.interp_instrs_per_cycle", float64(instrs)/float64(cycles))
	return err
}

// probeEngines times the engine forms the workload itself does not use:
// scalar, one-lane batch, sixteen-lane batch and the two-thread parallel
// engine, all on the same stimulus, and holds their final outputs equal.
func (r *run) probeEngines() error {
	cv := r.dedup[r.w.designs[0].String()]
	wl, cycles := r.stim(), r.w.simCycles

	ms, err := r.timed("sim.new", cv.name, func() error { _ = sim.New(cv.cv.Program, true); return nil })
	if err != nil {
		return err
	}
	r.rec("sim.engine_new_ms", ms)

	khz := func(span string, lanes, cycles int) (float64, simOut, error) {
		sp := r.tr.begin(span, cv.name)
		defer r.tr.end(sp)
		o, err := r.es.runCase(nil, cv, simCase{design: cv.name, wl: wl, cycles: cycles, lanes: lanes})
		return float64(cycles*max(1, lanes)) / 1e3 / o.dur.Seconds(), o, err
	}
	scalar, so, err := khz("sim.scalar", 0, cycles)
	if err != nil {
		return err
	}
	l1, b1, err := khz("sim.batch1", 1, cycles)
	if err != nil {
		return err
	}
	// A quarter the cycles on sixteen lanes is four times the lane-cycles.
	_, s16, err := khz("sim.scalar", 0, cycles/4)
	if err != nil {
		return err
	}
	l16, b16, err := khz("sim.batch16", 16, cycles/4)
	if err != nil {
		return err
	}
	r.attempted += 2
	if b1.digests[0] != so.digests[0] {
		r.fail("%s: one-lane batch ends in %#x, the scalar engine in %#x", cv.name, b1.digests[0], so.digests[0])
	}
	if b16.digests[0] != s16.digests[0] {
		r.fail("%s: lane 0 of 16 ends in %#x, the scalar engine in %#x", cv.name, b16.digests[0], s16.digests[0])
	}
	r.rec("sim.batch_l1_khz", l1)
	r.rec("sim.batch_vs_scalar", l16/scalar)

	var pe *sim.ParallelEngine
	if _, err = r.timed("sim.new", cv.name, func() (err error) { pe, err = sim.NewParallel(cv.cv.Program, cv.q, 2); return }); err != nil {
		return err
	}
	drive := wl.NewDrive()
	ms, err = r.timed("sim.parallel", cv.name, func() error {
		for cyc := 0; cyc < cycles; cyc++ {
			drive(pe, cyc)
			pe.Step()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.rec("sim.parallel2_khz", float64(cycles)/ms)
	r.attempted++
	for name, want := range so.outputs {
		if v, _ := pe.Output(name); fmt.Sprintf("%#x", v) != want {
			r.fail("%s: parallel engine output %s = %#x, scalar has %s", cv.name, name, v, want)
			break
		}
	}
	return nil
}

// probeSnapshot times Save, Encode and Decode on an engine that has run,
// and requires the decoded snapshot to equal the saved one.
func (r *run) probeSnapshot() error {
	cv := r.dedup[r.w.designs[0].String()]
	e := r.es.scalarFor(cv)
	drive := r.stim().NewEngineDrive(e)
	sp := r.tr.begin("sim.run", cv.name)
	for cyc := 0; cyc < 64; cyc++ {
		drive(cyc)
		e.Step()
	}
	r.tr.end(sp)
	var snap, back *sim.Snapshot
	var data []byte
	var save, enc, dec []float64
	for i := 0; i < 5; i++ {
		ms, _ := r.timed("sim.snapshot", cv.name, func() error { snap = e.Save(); return nil })
		save = append(save, ms*1e3)
		ms, _ = r.timed("sim.snapshot", cv.name, func() error { data = snap.Encode(); return nil })
		enc = append(enc, ms*1e3)
		ms, err := r.timed("sim.snapshot", cv.name, func() (err error) { back, err = sim.DecodeSnapshot(data); return })
		if err != nil {
			return err
		}
		dec = append(dec, ms*1e3)
	}
	r.attempted++
	if !reflect.DeepEqual(snap, back) {
		r.fail("%s: decoded snapshot differs from the saved one", cv.name)
	}
	r.rec("sim.snapshot_save_us", median(save))
	r.rec("sim.snapshot_encode_us", median(enc))
	r.rec("sim.snapshot_decode_us", median(dec))
	r.rec("sim.snapshot_bytes", float64(len(data)))
	return nil
}

// probePerfmodel records both variants' activation streams and replays
// them through the host model, so the modelled Dedup/ESSENT ratio sits in
// the same row as the measured one. Caches shrink with the design scale,
// as the harness does.
func (r *run) probePerfmodel() error {
	d := r.w.designs[0]
	m := perfmodel.Server().ScaleCaches(int(math.Round(20 / d.scale)))
	cycles := min(r.w.simCycles, 200)
	var hz, mpki [2]float64
	var recMs float64
	for i, cv := range []*compiled{r.essent[d.String()], r.dedup[d.String()]} {
		drive := r.stim().NewDrive()
		var tr *perfmodel.Trace
		ms, err := r.timed("perfmodel.record", cv.name, func() error {
			tr = perfmodel.Record(cv.cv.Program, true, cycles, func(e *sim.Engine, cyc int) { drive(e, cyc) })
			return nil
		})
		if err != nil {
			return err
		}
		recMs += ms
		if _, err := r.timed("perfmodel.replay", cv.name, func() error {
			c := perfmodel.RunSingle(tr, m, 0)
			hz[i], mpki[i] = c.SimHz, c.L1IMPKI
			return nil
		}); err != nil {
			return err
		}
	}
	r.rec("perfmodel.record_ms", recMs)
	r.rec("perfmodel.modeled_dedup_vs_essent", hz[1]/hz[0])
	r.rec("perfmodel.l1i_mpki_essent", mpki[0])
	r.rec("perfmodel.l1i_mpki_dedup", mpki[1])
	return nil
}

// probeFarm times what the farm pays per job outside its histograms — the
// re-elaboration and hash of the spec, even on a cache hit — and the
// artifact codec that replication and warm restarts use.
func (r *run) probeFarm() error {
	cv := r.dedup[r.w.designs[0].String()]
	spec := farm.DesignSpec{FIRRTL: r.in.src[cv.name]}
	ms, err := r.timed("farm.specbuild", cv.name, func() error {
		c, err := spec.Build()
		if err == nil {
			_ = c.StructuralHash()
		}
		return err
	})
	if err != nil {
		return err
	}
	r.rec("farm.spec_build_ms", ms)

	var data []byte
	if ms, err = r.timed("farm.artifact", cv.name, func() (err error) { data, err = farm.EncodeArtifact(cv.cv, cv.wall); return }); err != nil {
		return err
	}
	r.rec("farm.artifact_encode_ms", ms)
	var back *harness.Compiled
	if ms, err = r.timed("farm.artifact", cv.name, func() (err error) { back, _, err = farm.DecodeArtifact(data); return }); err != nil {
		return err
	}
	r.rec("farm.artifact_decode_ms", ms)
	r.rec("farm.artifact_kb", float64(len(data))/1024)
	r.attempted++
	if back.Program.UniqueCodeBytes != cv.cv.Program.UniqueCodeBytes || len(back.Program.Kernels) != len(cv.cv.Program.Kernels) {
		r.fail("%s: decoded artifact differs from the compiled program", cv.name)
	}
	return nil
}

// probeDurable appends to a journal under each fsync policy, replays the
// unsynced one after reopening it, and saves a checkpoint. "always" is
// bound by the disk, so it appends fewer records; it is reported for
// reference.
func (r *run) probeDurable() error {
	cv := r.dedup[r.w.designs[0].String()]
	ckpt := r.es.scalarFor(cv).Save().Encode()
	for _, p := range []struct {
		policy  durable.FsyncPolicy
		records int
	}{{durable.FsyncNone, 2000}, {durable.FsyncInterval, 2000}, {durable.FsyncAlways, 100}} {
		if _, err := r.timed("durable.store", string(p.policy), func() error { return r.probeJournal(p.policy, p.records, ckpt) }); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) probeJournal(policy durable.FsyncPolicy, records int, ckpt []byte) error {
	opts := durable.Options{Dir: filepath.Join(r.in.dir, "journal-"+string(policy)), Fsync: policy}
	// withStore opens the journal, runs f, and closes it exactly once
	// (Store.Close may not be called twice).
	withStore := func(f func(*durable.Store) error) error {
		st, err := durable.OpenStore(opts)
		if err != nil {
			return err
		}
		if err := f(st); err != nil {
			st.Close()
			return err
		}
		return st.Close()
	}
	err := withStore(func(st *durable.Store) error {
		ms, err := r.timed("durable.append", string(policy), func() error {
			for i := 0; i < records; i++ {
				if err := st.Append(durable.Record{Type: durable.RecCheckpoint, Job: "job-1", Cycle: int64(i)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.rec("durable.append_us."+string(policy), ms*1e3/float64(records))
		if policy != durable.FsyncInterval {
			return nil
		}
		ms, err = r.timed("durable.ckpt", "", func() error { return st.SaveCheckpoint("job-1", ckpt) })
		r.rec("durable.ckpt_save_ms", ms)
		return err
	})
	if err != nil || policy != durable.FsyncNone {
		return err
	}
	return withStore(func(st *durable.Store) error {
		seen := 0
		ms, err := r.timed("durable.replay", "", func() error { _, err := st.Replay(func(durable.Record) { seen++ }); return err })
		r.attempted++
		if seen != records {
			r.fail("journal replay saw %d of %d records", seen, records)
		}
		r.rec("durable.replay_ms_per_krec", ms*1e3/float64(records))
		return err
	})
}

// probePrimitives times the per-dequeue and per-observation primitives
// that sit on every job's path.
func (r *run) probePrimitives() error {
	reg, names := tenantRegistry(), []string{"t1", "t2", "t3"}
	const picks = 20000
	ms, _ := r.timed("tenant.pick", "", func() error {
		for i := 0; i < picks; i++ {
			reg.ChargeVTime(reg.PickTenant(names), 1000)
		}
		return nil
	})
	r.rec("tenant.pick_ns", ms*1e6/picks)
	var h obs.Histogram
	const observes = 200000
	ms, _ = r.timed("obs.observe", "", func() error {
		for i := 0; i < observes; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
		return nil
	})
	r.rec("obs.hist_observe_ns", ms*1e6/observes)
	return nil
}
