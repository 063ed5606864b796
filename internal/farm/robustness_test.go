package farm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dedupsim/internal/faultinject"
)

// simResultsEqual compares the deterministic simulation results of two
// runs: cycle/activation/instruction counters and final outputs. Wall
// times and compile attribution legitimately differ between runs.
func simResultsEqual(t *testing.T, label string, want, got *SimStats) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: missing stats (want %v, got %v)", label, want, got)
	}
	if got.Cycles != want.Cycles || got.ActsExecuted != want.ActsExecuted ||
		got.ActsSkipped != want.ActsSkipped || got.DynInstrs != want.DynInstrs ||
		got.Workload != want.Workload {
		t.Errorf("%s: results diverged:\n want cycles=%d acts=%d/%d dyn=%d wl=%s\n  got cycles=%d acts=%d/%d dyn=%d wl=%s",
			label,
			want.Cycles, want.ActsExecuted, want.ActsSkipped, want.DynInstrs, want.Workload,
			got.Cycles, got.ActsExecuted, got.ActsSkipped, got.DynInstrs, got.Workload)
	}
	for name, v := range want.Outputs {
		if got.Outputs[name] != v {
			t.Errorf("%s: output %s = %s, want %s", label, name, got.Outputs[name], v)
		}
	}
}

// runReference runs spec on a fault-free farm and returns its results.
func runReference(t *testing.T, spec JobSpec) JobView {
	t.Helper()
	ref := New(Config{Workers: 1})
	defer ref.Close()
	j, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, ref, j.ID)
	if v.Status != StatusDone {
		t.Fatalf("reference run: %s (%s)", v.Status, v.Error)
	}
	return v
}

// TestFarmCheckpointResume: a worker crash mid-run retries from the last
// periodic checkpoint rather than cycle 0, and the resumed run is
// bit-exact with a fault-free one. The crash is injected at the cycle-256
// chunk boundary (rate 1, budget 1), with checkpoints every 64 cycles, so
// the retry must resume from exactly cycle 256.
func TestFarmCheckpointResume(t *testing.T) {
	spec := smallSpec()
	spec.Cycles = 400
	want := runReference(t, spec)

	reg := faultinject.New(faultinject.Config{
		Seed:        1,
		Rates:       map[faultinject.Point]float64{faultinject.WorkerCrash: 1},
		MaxPerPoint: 1,
	})
	f := New(Config{Workers: 1, CheckpointEvery: 64, RetryBackoff: time.Millisecond, Faults: reg})
	defer f.Close()
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, f, j.ID)
	if v.Status != StatusDone {
		t.Fatalf("job: %s (%s)", v.Status, v.Error)
	}
	if v.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", v.Attempts)
	}
	if v.ResumedCycles != 256 {
		t.Errorf("ResumedCycles = %d, want 256 (checkpoint before the crash boundary)", v.ResumedCycles)
	}
	simResultsEqual(t, "crash-resumed job", want.Stats, v.Stats)

	st := f.Stats()
	if st.CyclesSavedByResume != 256 {
		t.Errorf("CyclesSavedByResume = %d, want 256", st.CyclesSavedByResume)
	}
	if st.CheckpointsTaken < 4 {
		t.Errorf("CheckpointsTaken = %d, want >= 4", st.CheckpointsTaken)
	}
	if st.RetriesByCause["panic"] != 1 {
		t.Errorf("RetriesByCause = %v, want panic=1", st.RetriesByCause)
	}
	if st.FaultsInjected[string(faultinject.WorkerCrash)] != 1 {
		t.Errorf("FaultsInjected = %v, want %s=1", st.FaultsInjected, faultinject.WorkerCrash)
	}
}

// TestFarmWatchdogPreempt: a simulation stalled mid-step (injected stall
// far longer than StuckTimeout) is preempted by the watchdog and retried
// from its last checkpoint, finishing bit-exact with a fault-free run.
func TestFarmWatchdogPreempt(t *testing.T) {
	spec := smallSpec()
	spec.Cycles = 400
	want := runReference(t, spec)

	reg := faultinject.New(faultinject.Config{
		Seed:        3,
		Rates:       map[faultinject.Point]float64{faultinject.StepStall: 1},
		Stall:       10 * time.Second, // "stuck": only the watchdog can end it
		MaxPerPoint: 1,
	})
	f := New(Config{
		Workers:         1,
		CheckpointEvery: 64,
		StuckTimeout:    100 * time.Millisecond,
		RetryBackoff:    time.Millisecond,
		Faults:          reg,
	})
	defer f.Close()
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, f, j.ID)
	if v.Status != StatusDone {
		t.Fatalf("job: %s (%s)", v.Status, v.Error)
	}
	if v.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", v.Attempts)
	}
	// The stalled attempt keeps checkpointing after the preemption until
	// it observes the cancel at the next chunk boundary (cycle 256), so
	// the retry resumes from 256.
	if v.ResumedCycles != 256 {
		t.Errorf("ResumedCycles = %d, want 256", v.ResumedCycles)
	}
	simResultsEqual(t, "preempted job", want.Stats, v.Stats)

	st := f.Stats()
	if st.JobsPreempted != 1 {
		t.Errorf("JobsPreempted = %d, want 1", st.JobsPreempted)
	}
	if st.RetriesByCause["preempted"] != 1 {
		t.Errorf("RetriesByCause = %v, want preempted=1", st.RetriesByCause)
	}
}

// TestFarmBatchLaneCheckpointFallback: when a worker crash kills a whole
// batch, each lane re-runs alone, as a group of one, resuming from its
// per-lane checkpoint — not cycle 0 — and still matches a fault-free run
// bit-exactly.
func TestFarmBatchLaneCheckpointFallback(t *testing.T) {
	spec := smallSpec()
	spec.Cycles = 400
	want := runReference(t, spec)

	reg := faultinject.New(faultinject.Config{
		Seed:        7,
		Rates:       map[faultinject.Point]float64{faultinject.WorkerCrash: 1},
		MaxPerPoint: 1,
	})
	f := New(Config{Workers: 1, MaxLanes: 4, CheckpointEvery: 64, RetryBackoff: time.Millisecond, Faults: reg})
	defer f.Close()

	// Filler jobs keep the single worker busy so the two 400-cycle jobs
	// below are both queued when the worker reaches them and coalesce
	// into one batch. Fillers finish under 256 cycles, so they never
	// reach a crash-fault chunk boundary and leave the fault budget to
	// the batch under test.
	filler := JobSpec{DesignSpec: DesignSpec{Design: "SmallBoom-2C", Scale: 0.1}, Cycles: 120}
	fillerIDs := submitN(t, f, filler, 900, 8)

	ids := submitN(t, f, spec, 500, 2)
	for i, id := range ids {
		v := waitDone(t, f, id)
		if v.Status != StatusDone {
			t.Fatalf("job %d: %s (%s)", i, v.Status, v.Error)
		}
		if v.Attempts != 2 {
			t.Errorf("job %d: Attempts = %d, want 2 (batch crash + solo re-run)", i, v.Attempts)
		}
		if v.ResumedCycles != 256 {
			t.Errorf("job %d: ResumedCycles = %d, want 256 (lane checkpoint)", i, v.ResumedCycles)
		}
		if v.Stats != nil && v.Stats.Lanes != 0 {
			t.Errorf("job %d: Lanes = %d, want 0 (re-run as a group of one)", i, v.Stats.Lanes)
		}
		ref := want
		ref.Spec.Seed = v.Spec.Seed
		// Seeds differ from the reference run, so only structural counters
		// can't be compared; rerun the reference per seed instead.
		refV := runReference(t, v.Spec)
		simResultsEqual(t, fmt.Sprintf("re-run job %d", i), refV.Stats, v.Stats)
	}
	for _, id := range fillerIDs {
		if v := waitDone(t, f, id); v.Status != StatusDone {
			t.Errorf("filler %s: %s (%s)", id, v.Status, v.Error)
		}
	}
	if st := f.Stats(); st.CyclesSavedByResume != 512 {
		t.Errorf("CyclesSavedByResume = %d, want 512 (2 lanes x 256)", st.CyclesSavedByResume)
	}
}

// TestFarmRetryPolicy: MaxRetries > 1 keeps retrying transient failures
// (with per-cause accounting), and MaxRetries < 0 disables retries.
func TestFarmRetryPolicy(t *testing.T) {
	f := New(Config{Workers: 1, MaxRetries: 3, RetryBackoff: time.Millisecond})
	var mu sync.Mutex
	failures := 0
	f.injectFault = func(j *Job, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		if attempt < 2 {
			failures++
			return TransientCause("test", fmt.Errorf("injected failure %d", attempt))
		}
		return nil
	}
	j, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, f, j.ID)
	if v.Status != StatusDone || v.Attempts != 3 {
		t.Errorf("got %s after %d attempts, want done after 3 (%s)", v.Status, v.Attempts, v.Error)
	}
	if st := f.Stats(); st.JobsRetried != 2 || st.RetriesByCause["test"] != 2 {
		t.Errorf("retries = %d by cause %v, want 2 with test=2", st.JobsRetried, st.RetriesByCause)
	}
	f.Close()

	// MaxRetries < 0: transient failures are terminal on the first attempt.
	f2 := New(Config{Workers: 1, MaxRetries: -1})
	defer f2.Close()
	f2.injectFault = func(j *Job, attempt int) error {
		return Transient(errors.New("always failing"))
	}
	j2, err := f2.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, f2, j2.ID); v.Status != StatusFailed || v.Attempts != 1 {
		t.Errorf("got %s after %d attempts, want failed after 1", v.Status, v.Attempts)
	}
}

// TestFarmDrain: BeginDrain refuses new work while Drain waits for all
// queued and running jobs to reach terminal states.
func TestFarmDrain(t *testing.T) {
	f := New(Config{Workers: 2})
	ids := submitN(t, f, smallSpec(), 700, 4)

	f.BeginDrain()
	if f.Ready() {
		t.Error("Ready() true while draining")
	}
	if _, err := f.Submit(smallSpec()); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining: %v, want ErrDraining", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, ok := f.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v := j.View(); v.Status != StatusDone {
			t.Errorf("%s after drain: %s (%s)", id, v.Status, v.Error)
		}
	}
	f.Close()
}

// chaosSpecs is the chaos test's job mix: coalescable same-design sweeps,
// a second design, both workloads, two simulator variants, and VCD
// capture jobs. The VCD jobs finish under 256 cycles so crash faults
// (which fire at later chunk boundaries) always hit resumable jobs,
// making the cycles-saved assertion deterministic.
func chaosSpecs() []JobSpec {
	rocket := DesignSpec{Design: "Rocket-2C", Scale: 0.1}
	boom := DesignSpec{Design: "SmallBoom-2C", Scale: 0.1}
	var specs []JobSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, JobSpec{DesignSpec: rocket, Workload: "A", Cycles: 400, Seed: uint64(i + 1)})
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, JobSpec{DesignSpec: rocket, Workload: "B", Cycles: 500, Seed: uint64(i + 11)})
	}
	for i := 0; i < 2; i++ {
		specs = append(specs, JobSpec{DesignSpec: boom, Workload: "A", Cycles: 600, Seed: uint64(i + 21)})
	}
	return append(specs,
		JobSpec{DesignSpec: rocket, Workload: "A", Cycles: 200, Seed: 31, VCD: true},
		JobSpec{DesignSpec: rocket, Workload: "A", Cycles: 200, Seed: 32, VCD: true},
		JobSpec{DesignSpec: rocket, Variant: "ESSENT", Workload: "A", Cycles: 400, Seed: 41},
		JobSpec{DesignSpec: boom, Variant: "ESSENT", Workload: "B", Cycles: 400, Seed: 42},
	)
}

// TestFarmChaos drives the farm under every injection point at once —
// compile panics and stalls, step stalls, worker crashes, batch
// transients, and queue pressure — with a seeded registry, and asserts
// the robustness contract: no job is lost (every submission reaches a
// terminal state, and with retries available, Done), results including
// waveforms are bit-exact with a fault-free run, and at least one retry
// demonstrably resumed from a checkpoint past cycle 0.
func TestFarmChaos(t *testing.T) {
	specs := chaosSpecs()

	// Fault-free reference results for every spec.
	ref := New(Config{Workers: 3, MaxLanes: 4})
	refIDs := make([]string, len(specs))
	for i, s := range specs {
		j, err := ref.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		refIDs[i] = j.ID
	}
	refViews := make([]JobView, len(specs))
	refVCDs := make(map[int][]byte)
	for i, id := range refIDs {
		refViews[i] = waitDone(t, ref, id)
		if refViews[i].Status != StatusDone {
			t.Fatalf("reference job %d: %s (%s)", i, refViews[i].Status, refViews[i].Error)
		}
		if specs[i].VCD {
			j, _ := ref.Job(id)
			refVCDs[i] = j.VCD()
		}
	}
	ref.Close()

	reg := faultinject.New(faultinject.Config{
		Seed: 0xC0FFEE,
		Rates: map[faultinject.Point]float64{
			faultinject.CompilePanic:   0.5,
			faultinject.CompileStall:   0.5,
			faultinject.StepStall:      0.002,
			faultinject.WorkerCrash:    1.0,
			faultinject.BatchTransient: 0.5,
			faultinject.QueuePressure:  0.25,
		},
		Stall:       50 * time.Millisecond,
		MaxPerPoint: 2,
	})
	f := New(Config{
		Workers:         3,
		MaxLanes:        4,
		QueueDepth:      64,
		CheckpointEvery: 64,
		MaxRetries:      8,
		RetryBackoff:    time.Millisecond,
		StuckTimeout:    2 * time.Second,
		DefaultTimeout:  60 * time.Second,
		Faults:          reg,
	})
	defer f.Close()

	ids := make([]string, len(specs))
	for i, s := range specs {
		for {
			j, err := f.Submit(s)
			if err == nil {
				ids[i] = j.ID
				break
			}
			if errors.Is(err, ErrQueueFull) {
				// Shed at admission: honor the backoff contract and resubmit.
				time.Sleep(time.Millisecond)
				continue
			}
			t.Fatal(err)
		}
	}

	for i, id := range ids {
		v := waitDone(t, f, id)
		if v.Status != StatusDone {
			t.Fatalf("job %d (%s): %s after %d attempts (%s)", i, id, v.Status, v.Attempts, v.Error)
		}
		simResultsEqual(t, fmt.Sprintf("chaos job %d", i), refViews[i].Stats, v.Stats)
		if specs[i].VCD {
			j, _ := f.Job(id)
			if !bytes.Equal(j.VCD(), refVCDs[i]) {
				t.Errorf("job %d: VCD diverged from fault-free run", i)
			}
		}
	}

	st := f.Stats()
	if len(st.FaultsInjected) == 0 {
		t.Error("chaos run fired no faults")
	}
	if st.FaultsInjected[string(faultinject.WorkerCrash)] == 0 {
		t.Error("no worker crash fired (rate 1 should always hit)")
	}
	if st.CyclesSavedByResume == 0 {
		t.Error("no retry resumed from a checkpoint (CyclesSavedByResume = 0)")
	}
	t.Logf("chaos: faults=%v retries=%v checkpoints=%d cycles_saved=%d shed=%d preempted=%d",
		st.FaultsInjected, st.RetriesByCause, st.CheckpointsTaken,
		st.CyclesSavedByResume, st.JobsShed, st.JobsPreempted)

	// Observability contract, asserted under the same chaos: every job
	// carries a trace whose spans (queued, compile, run, backoff) cover
	// at least 95% of its wall time, every retry left a trace event, and
	// the event causes agree with the farm's by-cause retry counters.
	var totalRetries, tracedRetries int64
	for _, n := range st.RetriesByCause {
		totalRetries += n
	}
	for i, id := range ids {
		j, _ := f.Job(id)
		tv := j.TraceView()
		v := j.View()
		if tv.TraceID == "" || tv.TraceID != v.TraceID {
			t.Errorf("job %d: trace ID %q does not match view %q", i, tv.TraceID, v.TraceID)
		}
		if cov := tv.SpanCoverage(v.CreatedAt, v.FinishedAt); cov < 0.95 {
			t.Errorf("job %d (%s): trace spans cover %.1f%% of wall time, want >= 95%% (events: %+v)",
				i, id, 100*cov, tv.Events)
		}
		for _, e := range tv.Events {
			if e.Name != "retry" {
				continue
			}
			tracedRetries++
			cause := e.Attrs["cause"]
			if cause == "" {
				t.Errorf("job %d: retry event without a cause attr", i)
			} else if _, known := st.RetriesByCause[cause]; !known {
				t.Errorf("job %d: retry cause %q absent from RetriesByCause %v",
					i, cause, st.RetriesByCause)
			}
		}
	}
	if tracedRetries != totalRetries {
		t.Errorf("traces recorded %d retry events, farm counted %d retries",
			tracedRetries, totalRetries)
	}
	if st.Latency == nil || st.Latency.EndToEnd.Count < uint64(len(ids)) {
		t.Errorf("latency digests missing or short: %+v", st.Latency)
	}
}
