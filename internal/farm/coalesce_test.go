package farm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// submitN submits n copies of spec with seeds seed0..seed0+n-1.
func submitN(t *testing.T, f *Farm, spec JobSpec, seed0 uint64, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		s := spec
		s.Seed = seed0 + uint64(i)
		j, err := f.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	return ids
}

// blockWorker occupies the farm's single worker with a long job so
// subsequent submissions pile up in the queue; the returned func cancels
// it. Coalescing tests use this to control what gets batched together.
func blockWorker(t *testing.T, f *Farm) func() {
	t.Helper()
	spec := smallSpec()
	spec.Cycles = 1_000_000
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, f, j.ID)
	return func() { _ = f.Cancel(j.ID) }
}

func waitRunning(t *testing.T, f *Farm, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := f.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v := j.View(); v.Status == StatusRunning {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestFarmCoalesceMatchesScalar is the coalescing contract: jobs batched
// into one BatchEngine report exactly the stats (outputs, cycle and
// activation counters) they would running alone, which the sim tests
// hold bit-exact with dedicated scalar engines.
func TestFarmCoalesceMatchesScalar(t *testing.T) {
	const lanes = 4
	spec := smallSpec()

	// Reference: a non-coalescing farm runs the same specs one job per
	// engine.
	ref := New(Config{Workers: 2})
	refIDs := submitN(t, ref, spec, 100, lanes)
	refViews := make([]JobView, lanes)
	for i, id := range refIDs {
		refViews[i] = waitDone(t, ref, id)
		if refViews[i].Status != StatusDone {
			t.Fatalf("ref %s: %s (%s)", id, refViews[i].Status, refViews[i].Error)
		}
	}
	ref.Close()

	// Coalescing farm: one worker, blocked so all lanes queue up and are
	// claimed as a single batch.
	f := New(Config{Workers: 1, MaxLanes: lanes})
	defer f.Close()
	unblock := blockWorker(t, f)
	ids := submitN(t, f, spec, 100, lanes)
	unblock()

	for i, id := range ids {
		v := waitDone(t, f, id)
		if v.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", id, v.Status, v.Error)
		}
		s, r := v.Stats, refViews[i].Stats
		if s == nil || r == nil {
			t.Fatal("missing stats")
		}
		if s.Lanes != lanes {
			t.Errorf("%s: lanes = %d, want %d", id, s.Lanes, lanes)
		}
		if s.Cycles != r.Cycles || s.ActsExecuted != r.ActsExecuted ||
			s.ActsSkipped != r.ActsSkipped || s.DynInstrs != r.DynInstrs {
			t.Errorf("%s counters diverged from the solo run: %+v vs %+v", id, s, r)
		}
		for name, val := range r.Outputs {
			if s.Outputs[name] != val {
				t.Errorf("%s output %s: batch %s, solo %s", id, name, s.Outputs[name], val)
			}
		}
	}
	// One compile (blocker) shared by everything: the batch was all hits.
	if cs := f.Cache().Stats(); cs.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", cs.Misses)
	}
}

// TestFarmCoalesceLaneBudgetsAndCancel exercises per-lane early exit both
// ways in one batch: two lanes with small distinct budgets retire on
// their own cycle counts, and a long-budget lane is canceled mid-run
// without disturbing the finished ones.
func TestFarmCoalesceLaneBudgetsAndCancel(t *testing.T) {
	f := New(Config{Workers: 1, MaxLanes: 4})
	defer f.Close()
	unblock := blockWorker(t, f)

	mk := func(cycles int, seed uint64) string {
		s := smallSpec()
		s.Cycles = cycles
		s.Seed = seed
		j, err := f.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	a := mk(150, 1)
	b := mk(300, 2)
	long := mk(1_000_000, 3)
	unblock()

	va := waitDone(t, f, a)
	vb := waitDone(t, f, b)
	if va.Status != StatusDone || vb.Status != StatusDone {
		t.Fatalf("short lanes: %s (%s), %s (%s)", va.Status, va.Error, vb.Status, vb.Error)
	}
	if va.Stats.Cycles != 150 || vb.Stats.Cycles != 300 {
		t.Errorf("lane budgets not honored: %d, %d cycles", va.Stats.Cycles, vb.Stats.Cycles)
	}
	if va.Stats.Lanes != 3 || vb.Stats.Lanes != 3 {
		t.Errorf("lanes = %d, %d, want 3", va.Stats.Lanes, vb.Stats.Lanes)
	}

	// The long lane is still stepping alone; cancel it.
	if err := f.Cancel(long); err != nil {
		t.Fatal(err)
	}
	vl := waitDone(t, f, long)
	if vl.Status != StatusCanceled {
		t.Fatalf("long lane: %s (%s), want canceled", vl.Status, vl.Error)
	}
	if vl.Attempts != 1 {
		t.Errorf("canceled lane retried: %d attempts", vl.Attempts)
	}
}

// TestFarmCoalesceVCDRunsAlone: waveform jobs never join a batch; they
// run as a group of one and still produce their VCD.
func TestFarmCoalesceVCDRunsAlone(t *testing.T) {
	f := New(Config{Workers: 1, MaxLanes: 4})
	defer f.Close()
	unblock := blockWorker(t, f)

	plain := submitN(t, f, smallSpec(), 10, 2)
	vcdSpec := smallSpec()
	vcdSpec.VCD = true
	vj, err := f.Submit(vcdSpec)
	if err != nil {
		t.Fatal(err)
	}
	unblock()

	for _, id := range plain {
		v := waitDone(t, f, id)
		if v.Status != StatusDone || v.Stats.Lanes != 2 {
			t.Fatalf("%s: %s, lanes %d, want done with 2 lanes", id, v.Status, v.Stats.Lanes)
		}
	}
	vv := waitDone(t, f, vj.ID)
	if vv.Status != StatusDone {
		t.Fatalf("vcd job: %s (%s)", vv.Status, vv.Error)
	}
	if vv.Stats.Lanes != 0 {
		t.Errorf("vcd job ran in a %d-lane batch", vv.Stats.Lanes)
	}
	if !vv.HasVCD {
		t.Error("vcd job produced no waveform")
	}
}

// TestFarmCoalesceTransientRetry: a transient batch failure re-runs each
// job alone, as a group of one, preserving the retry-once policy.
func TestFarmCoalesceTransientRetry(t *testing.T) {
	f := New(Config{Workers: 1, MaxLanes: 2})
	defer f.Close()
	f.injectFault = func(j *Job, attempt int) error {
		if j.Spec.Seed == 42 && attempt == 0 {
			return Transient(fmt.Errorf("injected batch fault"))
		}
		return nil
	}
	unblock := blockWorker(t, f)
	s1 := smallSpec()
	s1.Seed = 41
	s2 := smallSpec()
	s2.Seed = 42
	j1, err := f.Submit(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := f.Submit(s2)
	if err != nil {
		t.Fatal(err)
	}
	unblock()

	v1 := waitDone(t, f, j1.ID)
	v2 := waitDone(t, f, j2.ID)
	if v1.Status != StatusDone || v2.Status != StatusDone {
		t.Fatalf("statuses: %s (%s), %s (%s)", v1.Status, v1.Error, v2.Status, v2.Error)
	}
	if v1.Attempts != 2 || v2.Attempts != 2 {
		t.Errorf("attempts = %d, %d, want 2, 2 (batch abort + solo re-run)", v1.Attempts, v2.Attempts)
	}
	if v1.Stats.Lanes != 0 || v2.Stats.Lanes != 0 {
		t.Errorf("re-runs report lanes %d, %d, want 0 (groups of one)", v1.Stats.Lanes, v2.Stats.Lanes)
	}
}

// TestFarmCoalesceChurn hammers a coalescing farm with concurrent
// submissions and cancellations; under -race this is the locking proof
// for the pending-queue claim path and per-lane cancellation.
func TestFarmCoalesceChurn(t *testing.T) {
	f := New(Config{Workers: 3, MaxLanes: 8})
	defer f.Close()

	const N = 32
	ids := make(chan string, N)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N/4; i++ {
				s := smallSpec()
				s.Seed = uint64(g*100 + i)
				s.Cycles = 100 + 50*i
				j, err := f.Submit(s)
				if err != nil {
					t.Error(err)
					return
				}
				ids <- j.ID
			}
		}(g)
	}
	// Concurrent canceler: races Cancel against claiming and running.
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < N/2; i++ {
			_ = f.Cancel(fmt.Sprintf("job-%d", rng.Intn(N)+1))
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}()
	wg.Wait()
	close(ids)
	cwg.Wait()

	for id := range ids {
		v := waitDone(t, f, id)
		switch v.Status {
		case StatusDone, StatusCanceled:
		default:
			t.Errorf("%s: %s (%s)", id, v.Status, v.Error)
		}
	}
}

// TestFarmBatchSingleLaneStaysOnBatchEngine is the one-engine regression
// guard: a group of one — a solo job, or a coalesced group whose other
// members were canceled between claim and start — runs on a one-lane
// BatchEngine, the engine sim.Engine wraps.
// The job must report Lanes=0 (it had the engine to itself) and finish
// bit-exact with the reference run, counters included.
func TestFarmBatchSingleLaneStaysOnBatchEngine(t *testing.T) {
	want := runReference(t, smallSpec())

	f := New(Config{Workers: 1, MaxLanes: 4})
	defer f.Close()
	unblock := blockWorker(t, f)
	defer unblock()

	j, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Drive the run path directly with a one-job group — exactly the
	// state serve sees when every other lane of a claimed batch died
	// before the engine spun up. The farm's only worker is pinned by
	// blockWorker, so nothing races us for the job.
	f.serve([]*Job{j})

	v := j.View()
	if v.Status != StatusDone {
		t.Fatalf("single-lane batch: %s (%s)", v.Status, v.Error)
	}
	if v.Stats == nil {
		t.Fatal("single-lane batch finished without stats")
	}
	if v.Stats.Lanes != 0 {
		t.Fatalf("single-lane group reported lanes=%d, want 0 (a group of one)", v.Stats.Lanes)
	}
	if v.Stats.Cycles != want.Stats.Cycles ||
		v.Stats.ActsExecuted != want.Stats.ActsExecuted ||
		v.Stats.DynInstrs != want.Stats.DynInstrs ||
		!reflect.DeepEqual(v.Stats.Outputs, want.Stats.Outputs) {
		t.Errorf("single-lane batch diverged from the reference run:\n got %+v\nwant %+v",
			v.Stats, want.Stats)
	}
}

// TestFarmTraceRunTilesQueued pins the run path's trace tiling exactly,
// not as a coverage percentage: a job's first run span starts on the
// instant its queued span ends (compile and engine construction sit
// inside the run span), and its done event falls inside its last run
// span. Checked for a solo job and for each lane of a two-lane group.
func TestFarmTraceRunTilesQueued(t *testing.T) {
	f := New(Config{Workers: 1, MaxLanes: 2})
	defer f.Close()
	unblock := blockWorker(t, f)
	defer unblock()

	submit := func(seed uint64) *Job {
		s := smallSpec()
		s.Seed = seed
		j, err := f.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// The only worker is pinned, so the test hands serve exactly the
	// groups it wants.
	solo := submit(1)
	f.serve([]*Job{solo})
	a, b := submit(2), submit(3)
	f.serve([]*Job{a, b})

	for _, tc := range []struct {
		j     *Job
		lanes int
	}{{solo, 0}, {a, 2}, {b, 2}} {
		v := tc.j.View()
		if v.Status != StatusDone || v.Stats.Lanes != tc.lanes {
			t.Fatalf("%s: %s (%s), lanes %d, want done on %d lanes", v.ID, v.Status, v.Error, v.Stats.Lanes, tc.lanes)
		}
		tv := tc.j.TraceView()
		queued, firstRun, lastRun, done := -1, -1, -1, -1
		for i, e := range tv.Events {
			switch e.Name {
			case "queued":
				queued = i
			case "run":
				if firstRun < 0 {
					firstRun = i
				}
				lastRun = i
			case "done":
				done = i
			}
		}
		if queued < 0 || firstRun < 0 || done < 0 {
			t.Fatalf("%s: trace lacks queued, run or done: %+v", v.ID, tv.Events)
		}
		q, r0, r, d := tv.Events[queued], tv.Events[firstRun], tv.Events[lastRun], tv.Events[done]
		if !q.End().Equal(r0.Start) {
			t.Errorf("%s: queued ends at %v, run starts at %v; want the same instant", v.ID, q.End(), r0.Start)
		}
		if d.Start.Before(r.Start) || d.Start.After(r.End()) {
			t.Errorf("%s: done at %v outside the last run span [%v, %v]", v.ID, d.Start, r.Start, r.End())
		}
	}
}
