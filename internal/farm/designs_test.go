package farm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/sim"
)

// testFIRRTL is the inline-text twin of smallSpec's design.
func testFIRRTL() string { return gen.GenerateFIRRTL(gen.Config(gen.Rocket, 2, 0.1)) }

func firrtlSpec(src, variant, workload string, seed uint64, cycles int) JobSpec {
	return JobSpec{
		DesignSpec: DesignSpec{FIRRTL: src},
		Variant:    variant,
		Workload:   workload,
		Seed:       seed,
		Cycles:     cycles,
	}
}

// directRun is the reference every design-store test compares against: a
// dedupsim-style run with no farm in the way — elaborate, compile, one
// one-lane engine. With upTo > 0 it also returns the encoded snapshot
// taken after upTo cycles.
func directRun(t *testing.T, spec JobSpec, upTo int) (SimStats, []byte) {
	t.Helper()
	c, err := firrtl.Compile(spec.FIRRTL)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := harness.CompileVariant(c, harness.Variant(spec.Variant), partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workloadByName(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	be, err := sim.NewBatch(cv.Program, cv.Activity, 1)
	if err != nil {
		t.Fatal(err)
	}
	drive := wl.WithSeed(spec.Seed).NewLaneDrive(be, 0)
	var snap []byte
	for cyc := 0; cyc < spec.Cycles; cyc++ {
		if upTo > 0 && cyc == upTo {
			s, serr := be.SaveLane(0)
			if serr != nil {
				t.Fatal(serr)
			}
			snap = s.Encode()
		}
		drive(cyc)
		be.Step()
	}
	st := CollectLaneStats(c, c.StructuralHash(), cv, be, 0, 0, 0)
	st.Workload = wl.Name
	return st, snap
}

// sameAsDirect checks a farm job against the direct run of its spec.
func sameAsDirect(t *testing.T, label string, v JobView, want SimStats) {
	t.Helper()
	if v.Status != StatusDone {
		t.Fatalf("%s: %s (%s)", label, v.Status, v.Error)
	}
	simResultsEqual(t, label, &want, v.Stats)
	if v.Stats.CircuitHash != want.CircuitHash || v.CircuitHash != want.CircuitHash {
		t.Errorf("%s: circuit hash %s (view %s), want %s", label, v.Stats.CircuitHash, v.CircuitHash, want.CircuitHash)
	}
}

// waitDesignHits spins until n requesters have registered against the
// store, i.e. are parked on an in-flight build.
func waitDesignHits(t *testing.T, s *designStore, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.stats().Hits < n {
		if time.Now().After(deadline) {
			t.Fatalf("design store never reached %d hits: %+v", n, s.stats())
		}
		runtime.Gosched()
	}
}

func TestDesignKey(t *testing.T) {
	a := DesignSpec{Design: "Rocket-2C"}
	if a.Key() != (DesignSpec{Design: "Rocket-2C", Scale: 1.0}).Key() {
		t.Error("scale 0 and 1.0 name the same design but key differently")
	}
	distinct := []DesignSpec{
		a,
		{Design: "Rocket-2C", Scale: 0.5},
		{Design: "Rocket-4C"},
		{FIRRTL: "Rocket-2C"},
		{Design: "Rocket", FIRRTL: "-2C"},
		{FIRRTL: "circuit A :\n"},
		{FIRRTL: "circuit A :\n; comment\n"},
	}
	seen := map[DesignKey]int{}
	for i, d := range distinct {
		if j, dup := seen[d.Key()]; dup {
			t.Errorf("specs %d and %d share a key: %+v, %+v", j, i, distinct[j], d)
		}
		seen[d.Key()] = i
	}
}

// TestDesignStoreBuildsOncePerDesign: jobs of one FIRRTL text — both
// variants, both workloads, several seeds — submitted concurrently to a
// multi-worker coalescing farm elaborate the design exactly once, and
// every result equals the direct run of its spec.
func TestDesignStoreBuildsOncePerDesign(t *testing.T) {
	src := testFIRRTL()
	var specs []JobSpec
	for _, variant := range []string{"Dedup", "ESSENT"} {
		for _, wl := range []string{"A", "B"} {
			for seed := uint64(1); seed <= 3; seed++ {
				specs = append(specs, firrtlSpec(src, variant, wl, seed, 300))
			}
		}
	}
	f := New(Config{Workers: 3, MaxLanes: 4})
	defer f.Close()

	ids := make([]string, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := f.Submit(specs[i])
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i, id := range ids {
		want, _ := directRun(t, specs[i], 0)
		sameAsDirect(t, fmt.Sprintf("job %d (%s/%s/seed %d)", i, specs[i].Variant, specs[i].Workload, specs[i].Seed),
			waitDone(t, f, id), want)
	}
	st := f.Stats()
	if st.Designs.Misses != 1 || st.Designs.Resident != 1 || st.Designs.Evictions != 0 {
		t.Errorf("design store = %+v, want exactly one build of one resident design", st.Designs)
	}
	if st.Designs.Hits < 1 || st.Designs.Hits+st.Designs.Misses > int64(len(specs)) {
		t.Errorf("design store hits = %d, want 1..%d (one lookup per attempt or batch)", st.Designs.Hits, len(specs)-1)
	}
	if st.Cache.Misses != 2 {
		t.Errorf("compile-cache misses = %d, want 2 (one per variant)", st.Cache.Misses)
	}
}

// TestDesignStoreTextVsStructure: two texts differing only in a comment
// are two designs to the store (it keys by content, and never parses to
// find out) but one circuit to the compile cache.
func TestDesignStoreTextVsStructure(t *testing.T) {
	src := testFIRRTL()
	commented := src + "\n; same circuit, different bytes\n"
	f := New(Config{Workers: 1})
	defer f.Close()

	var views []JobView
	for _, text := range []string{src, commented} {
		for _, variant := range []string{"Dedup", "ESSENT"} {
			j, err := f.Submit(firrtlSpec(text, variant, "A", 7, 200))
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, waitDone(t, f, j.ID))
		}
	}
	for i, v := range views {
		if v.Status != StatusDone {
			t.Fatalf("job %d: %s (%s)", i, v.Status, v.Error)
		}
		if v.CircuitHash != views[0].CircuitHash {
			t.Fatalf("job %d hashes to %s, want %s: the comment changed the circuit", i, v.CircuitHash, views[0].CircuitHash)
		}
		if wantHit := i >= 2; v.CacheHit != wantHit {
			t.Errorf("job %d: compile-cache hit = %v, want %v", i, v.CacheHit, wantHit)
		}
	}
	st := f.Stats()
	if st.Designs.Misses != 2 || st.Designs.Resident != 2 || st.Designs.Hits != 2 {
		t.Errorf("design store = %+v, want 2 builds, 2 resident, 2 hits", st.Designs)
	}
	if st.Cache.Misses != 2 || st.Cache.Entries != 2 {
		t.Errorf("compile cache = %+v, want one entry per variant", st.Cache)
	}
}

// TestDesignStoreEviction: past the cap the least recently used design
// goes, its next job rebuilds it, and the rebuilt design simulates
// bit-identically.
func TestDesignStoreEviction(t *testing.T) {
	src := testFIRRTL()
	text := func(i int) string { return fmt.Sprintf("%s\n; copy %d\n", src, i) }
	f := New(Config{Workers: 1})
	defer f.Close()

	run := func(i int) JobView {
		t.Helper()
		j, err := f.Submit(firrtlSpec(text(i), "Dedup", "A", 3, 100))
		if err != nil {
			t.Fatal(err)
		}
		return waitDone(t, f, j.ID)
	}
	want, _ := directRun(t, firrtlSpec(text(0), "Dedup", "A", 3, 100), 0)
	for i := 0; i <= maxDesigns; i++ {
		sameAsDirect(t, fmt.Sprintf("copy %d", i), run(i), want)
	}
	st := f.Stats().Designs
	if st.Misses != maxDesigns+1 || st.Evictions != 1 || st.Resident != maxDesigns {
		t.Errorf("after %d designs: %+v, want %d builds, 1 eviction, %d resident", maxDesigns+1, st, maxDesigns+1, maxDesigns)
	}
	// Copy 0 was the least recently used: gone, so this job rebuilds it.
	// The newest copy is still resident.
	sameAsDirect(t, "copy 0 rebuilt", run(0), want)
	sameAsDirect(t, "newest copy", run(maxDesigns), want)
	st = f.Stats().Designs
	if st.Misses != maxDesigns+2 || st.Evictions != 2 || st.Hits != 1 {
		t.Errorf("after the rebuild: %+v, want %d builds, 2 evictions, 1 hit", st, maxDesigns+2)
	}
	if cs := f.Stats().Cache; cs.Misses != 1 {
		t.Errorf("compile-cache misses = %d, want 1: every copy is the same circuit", cs.Misses)
	}
}

// TestDesignStoreErrorsNotCached: a spec that does not elaborate fails
// each job with exactly the error Build gives, and is tried again for
// the next job rather than remembered.
func TestDesignStoreErrorsNotCached(t *testing.T) {
	bad := DesignSpec{FIRRTL: "circuit Broken :\n  module Broken :\n    output q : UInt<8>\n    q <= nosuch\n"}
	_, want := bad.Build()
	if want == nil {
		t.Fatal("the broken design elaborates")
	}
	f := New(Config{Workers: 1})
	defer f.Close()
	for i := 0; i < 2; i++ {
		j, err := f.Submit(JobSpec{DesignSpec: bad, Cycles: 10})
		if err != nil {
			t.Fatal(err)
		}
		v := waitDone(t, f, j.ID)
		if v.Status != StatusFailed || v.Attempts != 1 || v.Error != want.Error() {
			t.Errorf("job %d: %s after %d attempts, error %q; want failed after 1 with %q", i, v.Status, v.Attempts, v.Error, want)
		}
	}
	if st := f.Stats().Designs; st.Misses != 2 || st.Hits != 0 || st.Resident != 0 {
		t.Errorf("design store = %+v, want 2 builds and nothing retained", st)
	}
}

// TestDesignStorePanicDoesNotWedge: a build that panics propagates to
// its job, fails the requester parked on it with the transient
// ErrCompilePanicked, and leaves the key free for the next build.
func TestDesignStorePanicDoesNotWedge(t *testing.T) {
	s := newDesignStore()
	spec := smallSpec().DesignSpec
	key, good := spec.Key(), spec.Build

	block := make(chan struct{})
	started := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		s.get(context.Background(), key, func() (*circuit.Circuit, error) {
			close(started)
			<-block
			panic("boom")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := s.get(context.Background(), key, func() (*circuit.Circuit, error) {
			t.Error("a requester parked on an in-flight build must not build")
			return nil, nil
		})
		waiterErr <- err
	}()
	waitDesignHits(t, s, 1)
	close(block)

	if r := <-panicked; r == nil {
		t.Fatal("panic did not propagate out of get")
	}
	if err := <-waiterErr; !errors.Is(err, ErrCompilePanicked) {
		t.Errorf("parked requester got %v, want ErrCompilePanicked", err)
	}
	d, hit, err := s.get(context.Background(), key, good)
	if err != nil || hit || d.c == nil || d.hash != d.c.StructuralHash() {
		t.Errorf("build after the panic: hit=%v err=%v, want a fresh build with its hash", hit, err)
	}
	if _, hit, _ = s.get(context.Background(), key, good); !hit {
		t.Error("the rebuilt design is not resident")
	}
	if st := s.stats(); st.Misses != 2 || st.Resident != 1 {
		t.Errorf("store = %+v, want 2 builds, 1 resident", st)
	}
}

// TestDesignStoreSharedCircuitRace: a VCD job (prober and waveform
// writer walk the Circuit for the whole run), a solo job and a
// two-lane batch of one design run at the same time on the one shared
// Circuit. The three attempts rendezvous before touching it, so the
// overlap is by construction; the race detector is the assertion.
func TestDesignStoreSharedCircuitRace(t *testing.T) {
	src := testFIRRTL()
	f := New(Config{Workers: 3, MaxLanes: 2})
	defer f.Close()

	// Tenants keep the groups apart (coalescing never crosses tenants).
	// The "gate" job only occupies the third worker until both "batch"
	// jobs are queued, so they leave together as lanes.
	var taken, rendezvous sync.WaitGroup
	taken.Add(3)
	rendezvous.Add(3)
	arrive := map[string]*sync.Once{"vcd": {}, "solo": {}, "batch": {}}
	gate := make(chan struct{})
	f.injectFault = func(j *Job, _ int) error {
		if j.Spec.Tenant == "gate" {
			taken.Done()
			<-gate
			return errors.New("the gate job is not meant to run")
		}
		arrive[j.Spec.Tenant].Do(func() { // once per attempt: the hook runs per lane
			if j.Spec.Tenant != "batch" {
				taken.Done()
			}
			rendezvous.Done()
		})
		rendezvous.Wait()
		return nil
	}

	specs := []JobSpec{
		firrtlSpec(src, "Dedup", "A", 1, 600),
		firrtlSpec(src, "Dedup", "B", 2, 600),
		firrtlSpec(src, "Dedup", "A", 3, 600),
		firrtlSpec(src, "Dedup", "B", 4, 600),
	}
	specs[0].VCD, specs[0].Tenant = true, "vcd"
	specs[1].Tenant = "solo"
	specs[2].Tenant, specs[3].Tenant = "batch", "batch"
	gateSpec := smallSpec()
	gateSpec.Tenant = "gate"

	ids := make([]string, len(specs))
	submit := func(i int) {
		t.Helper()
		j, err := f.Submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	submit(0)
	submit(1)
	if _, err := f.Submit(gateSpec); err != nil {
		t.Fatal(err)
	}
	taken.Wait() // all three workers are inside the hook
	submit(2)
	submit(3)
	close(gate)

	for i, id := range ids {
		want, _ := directRun(t, specs[i], 0)
		v := waitDone(t, f, id)
		sameAsDirect(t, fmt.Sprintf("job %d", i), v, want)
		if j, _ := f.Job(id); specs[i].VCD && !strings.Contains(string(j.VCD()), "$enddefinitions") {
			t.Errorf("job %d: no waveform captured", i)
		}
		if wantLanes := 2 * (i / 2); v.Stats.Lanes != wantLanes {
			t.Errorf("job %d ran on %d lanes, want %d", i, v.Stats.Lanes, wantLanes)
		}
	}
	if st := f.Stats().Designs; st.Misses != 1 {
		t.Errorf("design store = %+v, want one build shared by all four jobs", st)
	}
}

// TestDesignStoreKillRestart: jobs recovered after a kill resolve their
// design through the new farm's store — one elaboration for all of them
// — and resume from their checkpoints exactly as before.
func TestDesignStoreKillRestart(t *testing.T) {
	src := testFIRRTL()
	const cycles, resumeAt, jobs = 400, 160, 3
	specs := make([]JobSpec, jobs)
	wants := make([]SimStats, jobs)
	for i := range specs {
		specs[i] = firrtlSpec(src, "Dedup", "A", uint64(10+i), cycles)
		// Each job arrives mid-flight, carrying its checkpoint inline (the
		// fleet migration path), so what recovery must resume is known
		// without racing a running job for a checkpoint on disk.
		wants[i], specs[i].Checkpoint = directRun(t, specs[i], resumeAt)
	}

	cfg := durableCfg(t.TempDir())
	cfg.Workers = 1
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The first farm admits and journals the jobs but never runs them:
	// every attempt parks until the kill.
	f.injectFault = func(*Job, int) error {
		<-f.ctx.Done()
		return errors.New("killed")
	}
	ids := make([]string, jobs)
	for i, s := range specs {
		j, serr := f.Submit(s)
		if serr != nil {
			t.Fatal(serr)
		}
		ids[i] = j.ID
	}
	f.Kill()
	if st := f.Stats().Designs; st.Misses != 0 {
		t.Fatalf("first farm elaborated %d designs, want none", st.Misses)
	}

	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if rec := f2.RecoveryStats(); rec == nil || rec.JobsRecovered != jobs || rec.CheckpointsLoaded != jobs {
		t.Fatalf("recovery = %+v, want %d jobs with %d checkpoints", rec, jobs, jobs)
	}
	for i, id := range ids {
		v := waitDone(t, f2, id)
		sameAsDirect(t, "recovered "+id, v, wants[i])
		if v.ResumedCycles != resumeAt {
			t.Errorf("%s resumed from cycle %d, want %d", id, v.ResumedCycles, resumeAt)
		}
	}
	st := f2.Stats()
	if st.Designs.Misses != 1 || st.Designs.Hits != jobs-1 {
		t.Errorf("design store = %+v, want 1 build and %d hits", st.Designs, jobs-1)
	}
	if st.CyclesSavedByResume != jobs*resumeAt {
		t.Errorf("CyclesSavedByResume = %d, want %d", st.CyclesSavedByResume, jobs*resumeAt)
	}
}
