package farm

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dedupsim/internal/gen"
)

// smallSpec is a fast generated design for tests.
func smallSpec() JobSpec {
	return JobSpec{
		DesignSpec: DesignSpec{Design: "Rocket-2C", Scale: 0.1},
		Variant:    "Dedup",
		Workload:   "A",
		Cycles:     200,
	}
}

func waitDone(t *testing.T, f *Farm, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := f.WaitJob(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return v
}

// TestFarmCacheDedup is the subsystem's core promise: submitting the same
// design twice compiles once — the second job is a cache hit — and both
// jobs produce identical simulation results off the shared Program.
func TestFarmCacheDedup(t *testing.T) {
	f := New(Config{Workers: 1}) // serialize so hit/miss order is deterministic
	defer f.Close()

	j1, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitDone(t, f, j1.ID)
	v2 := waitDone(t, f, j2.ID)

	if v1.Status != StatusDone || v2.Status != StatusDone {
		t.Fatalf("statuses: %s (%s), %s (%s)", v1.Status, v1.Error, v2.Status, v2.Error)
	}
	if v1.CacheHit {
		t.Error("first job should compile (miss)")
	}
	if !v2.CacheHit {
		t.Error("second job should be a cache hit")
	}
	cs := f.Cache().Stats()
	if cs.Misses != 1 || cs.Hits != 1 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 miss, 1 hit, 1 entry", cs)
	}

	// Identical stats: same deterministic workload on the same design.
	s1, s2 := v1.Stats, v2.Stats
	if s1 == nil || s2 == nil {
		t.Fatal("missing stats")
	}
	if s1.CircuitHash != s2.CircuitHash {
		t.Errorf("hashes differ: %s vs %s", s1.CircuitHash, s2.CircuitHash)
	}
	if s1.Cycles != s2.Cycles || s1.ActsExecuted != s2.ActsExecuted ||
		s1.ActsSkipped != s2.ActsSkipped || s1.DynInstrs != s2.DynInstrs {
		t.Errorf("run stats differ: %+v vs %+v", s1, s2)
	}
	for name, val := range s1.Outputs {
		if s2.Outputs[name] != val {
			t.Errorf("output %s: %s vs %s", name, val, s2.Outputs[name])
		}
	}
	if s2.CompileMs != 0 {
		t.Errorf("cache-hit job reports %f compile ms, want 0", s2.CompileMs)
	}
}

// TestFarmConcurrentSharedProgram floods a multi-worker farm with copies
// of one design; under -race this doubles as the proof that concurrent
// engines can share one read-only Program.
func TestFarmConcurrentSharedProgram(t *testing.T) {
	f := New(Config{Workers: 4})
	defer f.Close()

	const K = 12
	ids := make([]string, K)
	for i := range ids {
		j, err := f.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	var ref *SimStats
	for _, id := range ids {
		v := waitDone(t, f, id)
		if v.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", id, v.Status, v.Error)
		}
		if ref == nil {
			ref = v.Stats
			continue
		}
		if v.Stats.ActsExecuted != ref.ActsExecuted || v.Stats.Cycles != ref.Cycles {
			t.Errorf("%s diverged: %+v vs %+v", id, v.Stats, ref)
		}
	}
	cs := f.Cache().Stats()
	if cs.Misses != 1 {
		t.Errorf("got %d compiles for %d identical jobs, want 1", cs.Misses, K)
	}
	if cs.Hits != K-1 {
		t.Errorf("got %d hits, want %d", cs.Hits, K-1)
	}
	st := f.Stats()
	if st.JobsCompleted != K || st.SimulatedCycles != int64(K*200) {
		t.Errorf("farm stats = %+v", st)
	}
}

// TestFarmContentAddressing: the cache must key on structure, not on the
// submission route — a FIRRTL job with the generated source of the same
// config shares the Program, while a structurally different design does
// not.
func TestFarmContentAddressing(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()

	spec := smallSpec()
	j1, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := gen.GenerateFIRRTL(gen.Config(gen.Rocket, 2, 0.1))
	firrtlSpec := spec
	firrtlSpec.DesignSpec = DesignSpec{FIRRTL: src}
	j2, err := f.Submit(firrtlSpec)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Design = "Rocket-3C"
	j3, err := f.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2, v3 := waitDone(t, f, j1.ID), waitDone(t, f, j2.ID), waitDone(t, f, j3.ID)
	for _, v := range []JobView{v1, v2, v3} {
		if v.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", v.ID, v.Status, v.Error)
		}
	}
	if !v2.CacheHit {
		t.Error("FIRRTL submission of the same design should hit the cache")
	}
	if v3.CacheHit {
		t.Error("different core count must not hit the cache")
	}
	if v1.CircuitHash != v2.CircuitHash {
		t.Errorf("same structure, different hash: %s vs %s", v1.CircuitHash, v2.CircuitHash)
	}
	if v1.CircuitHash == v3.CircuitHash {
		t.Error("different structure, same hash")
	}
}

// TestFarmRetryOnce: a transient first-attempt failure is retried exactly
// once and succeeds; a persistent transient failure fails the job after
// the retry.
func TestFarmRetryOnce(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	var mu sync.Mutex
	fails := map[string]int{"job-1": 1, "job-2": 2}
	f.injectFault = func(j *Job, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		if fails[j.ID] > attempt {
			return Transient(errors.New("injected fault"))
		}
		return nil
	}

	j1, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitDone(t, f, j1.ID)
	if v1.Status != StatusDone || v1.Attempts != 2 {
		t.Errorf("transient-once job: status %s, %d attempts (want done after 2)", v1.Status, v1.Attempts)
	}
	v2 := waitDone(t, f, j2.ID)
	if v2.Status != StatusFailed || v2.Attempts != 2 {
		t.Errorf("persistent job: status %s, %d attempts (want failed after 2)", v2.Status, v2.Attempts)
	}
	if f.Stats().JobsRetried != 2 {
		t.Errorf("retries = %d, want 2", f.Stats().JobsRetried)
	}
}

// TestFarmPermanentErrorsDoNotRetry: a bad design fails on the first
// attempt.
func TestFarmPermanentErrorsDoNotRetry(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	spec := smallSpec()
	spec.DesignSpec = DesignSpec{FIRRTL: "circuit Broken :\n  module Broken :\n    output q : UInt<8>\n    q <= nosuch\n"}
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, f, j.ID)
	if v.Status != StatusFailed || v.Attempts != 1 {
		t.Errorf("status %s after %d attempts, want failed after 1 (err %q)", v.Status, v.Attempts, v.Error)
	}
}

// TestFarmTimeout: a job whose wall-clock budget expires fails with a
// timeout error.
func TestFarmTimeout(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	spec := smallSpec()
	spec.Cycles = 50_000_000 // forces the MaxCycles clamp path too
	spec.TimeoutMs = 30
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Spec.Cycles != 1_000_000 {
		t.Errorf("cycle budget not clamped: %d", j.Spec.Cycles)
	}
	v := waitDone(t, f, j.ID)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "timeout") {
		t.Errorf("status %s, err %q, want timeout failure", v.Status, v.Error)
	}
}

// TestFarmCancel cancels a running job and a queued job.
func TestFarmCancel(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	long := smallSpec()
	long.Cycles = 1_000_000
	j1, err := f.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := f.Submit(long) // sits in the queue behind j1
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	v2 := waitDone(t, f, j2.ID)
	if v2.Status != StatusCanceled {
		t.Errorf("queued job: %s, want canceled", v2.Status)
	}
	// Let j1 start, then cancel it.
	for i := 0; i < 200; i++ {
		if v := j1.View(); v.Status == StatusRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	v1 := waitDone(t, f, j1.ID)
	if v1.Status != StatusCanceled {
		t.Errorf("running job: %s (%s), want canceled", v1.Status, v1.Error)
	}
}

// TestFarmVCDCapture runs a job with waveform capture on.
func TestFarmVCDCapture(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	spec := smallSpec()
	spec.Cycles = 50
	spec.VCD = true
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, f, j.ID)
	if v.Status != StatusDone {
		t.Fatalf("status %s (%s)", v.Status, v.Error)
	}
	if !v.HasVCD {
		t.Fatal("no VCD captured")
	}
	vcd := string(j.VCD())
	if !strings.Contains(vcd, "$enddefinitions") || !strings.Contains(vcd, "#0") {
		t.Errorf("VCD looks malformed: %.120s", vcd)
	}
}

// TestFarmRetainJobs: terminal jobs beyond the retention cap are pruned
// (oldest-finished first) while the aggregate counters keep the history.
func TestFarmRetainJobs(t *testing.T) {
	f := New(Config{Workers: 1, RetainJobs: 2})
	defer f.Close()

	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := f.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		jobs = append(jobs, j)
	}
	// Pruning is part of the terminal step, done before Done closes.
	if n := len(f.Jobs()); n != 2 {
		t.Fatalf("retained %d jobs, want 2", n)
	}
	if _, ok := f.Job(jobs[0].ID); ok {
		t.Error("oldest finished job should have been pruned")
	}
	if _, ok := f.Job(jobs[4].ID); !ok {
		t.Error("newest finished job should be retained")
	}
	if got := f.Jobs(); len(got) != 2 || got[0].ID != jobs[3].ID || got[1].ID != jobs[4].ID {
		t.Errorf("retained jobs = %v, want [%s %s]", got, jobs[3].ID, jobs[4].ID)
	}
	if st := f.Stats(); st.JobsCompleted != 5 {
		t.Errorf("completed = %d after pruning, want 5", st.JobsCompleted)
	}
}

// TestFarmSubmitAfterClose: Submit observes closure under the farm
// mutex, so it can never enqueue a job the drained queue will strand.
func TestFarmSubmitAfterClose(t *testing.T) {
	f := New(Config{Workers: 1})
	f.Close()
	if _, err := f.Submit(smallSpec()); err == nil {
		t.Fatal("Submit after Close should fail")
	}
}

// TestFarmSpecValidation exercises Submit's rejection paths.
func TestFarmSpecValidation(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	bad := []JobSpec{
		{},
		{DesignSpec: DesignSpec{Design: "Rocket-2C"}, Variant: "Commercial"},
		{DesignSpec: DesignSpec{Design: "Rocket-2C"}, Workload: "Z"},
	}
	for i, spec := range bad {
		if _, err := f.Submit(spec); err == nil {
			t.Errorf("spec %d accepted, want error", i)
		}
	}
}
