package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFarmPublishesTerminalLast pins the terminal step's order from a
// client's side: the moment a job's Done channel closes, its trace
// already holds the run span and the done instant, and Stats already
// counts it — completed, end-to-end latency, and its tenant's completed.
// Each job has its own waiter so the check runs as close to the close as
// the scheduler allows.
func TestFarmPublishesTerminalLast(t *testing.T) {
	const n = 64
	tenants := []string{"t0", "t1", "t2"}
	f := New(Config{Workers: 2})
	defer f.Close()

	jobs := make([]*Job, n)
	for i := range jobs {
		spec := smallSpec()
		spec.Cycles = 40
		spec.Seed = uint64(i + 1)
		spec.Tenant = tenants[i%len(tenants)]
		j, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}

	// seen counts Done closes a waiter has observed, overall and per
	// tenant; every count read after an increment must cover it.
	var seen atomic.Int64
	seenBy := map[string]*atomic.Int64{}
	for _, tn := range tenants {
		seenBy[tn] = new(atomic.Int64)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*n)
	for _, j := range jobs {
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			<-j.Done()
			total := seen.Add(1)
			mine := seenBy[j.Spec.Tenant].Add(1)
			events := map[string]bool{}
			for _, e := range j.TraceView().Events {
				events[e.Name] = true
			}
			st := f.Stats()
			if v := j.View(); v.Status != StatusDone {
				errs <- fmt.Sprintf("%s: %s (%s)", j.ID, v.Status, v.Error)
			}
			if !events["run"] || !events["done"] {
				errs <- fmt.Sprintf("%s: trace at Done lacks run or done: %v", j.ID, events)
			}
			if st.JobsCompleted < total {
				errs <- fmt.Sprintf("%s: jobs_completed %d < %d jobs seen done", j.ID, st.JobsCompleted, total)
			}
			if c := int64(st.Latency.EndToEnd.Count); c < total {
				errs <- fmt.Sprintf("%s: end_to_end count %d < %d jobs seen done", j.ID, c, total)
			}
			if c := st.Tenants[j.Spec.Tenant].Completed; c < mine {
				errs <- fmt.Sprintf("%s: tenant %s completed %d < %d seen done", j.ID, j.Spec.Tenant, c, mine)
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestDecideOutcome is the attempt-outcome policy as a table: every kind
// of attempt end crossed with every stop cause and with retries left or
// exhausted. decide is pure, so the table needs no farm, no goroutines
// and no clock.
func TestDecideOutcome(t *testing.T) {
	timeout := errors.New("timeout after 1s")
	permanent := errors.New("compile: bad design")
	// want[stop][exhausted] is the outcome's label: its kind, or the
	// cause of a retry.
	type row struct {
		name        string
		err, jobErr error
		want        [3][2]string
	}
	same := func(label string) [3][2]string {
		return [3][2]string{{label, label}, {label, label}, {label, label}}
	}
	rows := []row{
		{"completed", nil, nil, same("done")},
		{"transient", TransientCause("panic", errors.New("boom")), nil,
			[3][2]string{{"panic", "failed"}, {"panic", "failed"}, {"panic", "failed"}}},
		{"permanent", permanent, nil, same("failed")},
		{"attempt canceled", context.Canceled, nil,
			[3][2]string{{"batch-abort", "failed"}, {"park", "park"}, {"preempted", "failed"}}},
		{"job canceled", context.Canceled, context.Canceled, same("canceled")},
		{"job deadline", context.DeadlineExceeded, timeout, same("timeout")},
		// A job that completed its budget is done even if its context
		// ended just after.
		{"completed, job canceled", nil, context.Canceled, same("done")},
	}
	stops := []stopCause{stopNone, stopPark, stopWatchdog}
	for _, r := range rows {
		for si, stop := range stops {
			for ei, exhausted := range []bool{false, true} {
				out := decide(r.err, r.jobErr, stop, !exhausted)
				name := fmt.Sprintf("%s/stop=%d/exhausted=%v", r.name, stop, exhausted)
				if got := out.label(); got != r.want[si][ei] {
					t.Errorf("%s: outcome %q, want %q", name, got, r.want[si][ei])
				}
				switch out.kind {
				case outDone, outRetry, outPark:
					if out.err != nil {
						t.Errorf("%s: %s carries error %v", name, out.kind, out.err)
					}
				case outCanceled:
					if out.status() != StatusCanceled || out.err.Error() != "canceled" {
						t.Errorf("%s: canceled as %s (%v)", name, out.status(), out.err)
					}
				case outTimeout:
					if out.status() != StatusFailed || out.err != timeout {
						t.Errorf("%s: timeout as %s (%v), want failed with the deadline's cause", name, out.status(), out.err)
					}
				case outFailed:
					if out.status() != StatusFailed || out.err == nil {
						t.Errorf("%s: failed as %s (%v)", name, out.status(), out.err)
					}
				}
			}
		}
	}
	if out := decide(nil, nil, stopNone, true); out.status() != StatusDone {
		t.Errorf("done publishes %s", out.status())
	}

	// Park and the watchdog both firing on one attempt: the first stop is
	// the attempt's one cause, and the second neither overwrites it nor
	// cancels again.
	for _, first := range []stopCause{stopPark, stopWatchdog} {
		second := stopPark + stopWatchdog - first
		cancels := 0
		j := &Job{status: StatusRunning, attemptCancel: func() { cancels++ }}
		for _, c := range []stopCause{first, second} {
			if cancel := j.stopAttempt(c); cancel != nil {
				cancel()
			}
		}
		if j.stop != first || cancels != 1 {
			t.Errorf("stops %d then %d: recorded %d after %d cancels, want %d after 1", first, second, j.stop, cancels, first)
		}
		want := map[stopCause]string{stopPark: "park", stopWatchdog: "preempted"}[first]
		if got := decide(context.Canceled, nil, j.stop, true).label(); got != want {
			t.Errorf("stops %d then %d: outcome %q, want %q", first, second, got, want)
		}
	}
}
