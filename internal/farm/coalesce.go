package farm

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"dedupsim/internal/faultinject"
	"dedupsim/internal/sim"
)

// runBatch runs 2+ same-design jobs as lanes of one BatchEngine. Each
// lane keeps its job's semantics: its own stimulus (workload + seed),
// cycle budget, timeout, cancellation, attempt count, and SimStats. A
// lane that finishes (budget reached, canceled, timed out) is finalized
// and deactivated while the other lanes keep stepping. Failures degrade
// per job, never per batch: a watchdog-preempted lane resumes from its
// lane checkpoint on a dedicated scalar engine, and a batch-level
// transient failure (compile panic, worker crash) falls back to per-job
// scalar retries under the normal retry policy.
func (f *Farm) runBatch(jobs []*Job) {
	// Per-job contexts: cancellation and timeout stay per lane.
	ctxs := make([]context.Context, len(jobs))
	timeouts := make([]time.Duration, len(jobs))
	waits := make([]time.Duration, len(jobs))
	live := jobs[:0]
	for _, j := range jobs {
		ctx, cancel := context.WithCancel(f.ctx)
		timeout := f.jobTimeout(j.Spec)
		ctx, cancelT := context.WithTimeout(ctx, timeout)
		defer cancelT()

		j.mu.Lock()
		if j.status != StatusQueued {
			// Canceled between claim and start.
			j.mu.Unlock()
			cancel()
			continue
		}
		j.status = StatusRunning
		now := time.Now()
		j.started = now
		j.progressAt = now
		j.cancel = cancel
		// The lane context doubles as the attempt context: the watchdog
		// preempts a stuck lane by canceling it, and the preempted flag
		// distinguishes that from a user cancel of the same context.
		j.attemptCancel = cancel
		j.preempted = false
		j.parked = false
		// Lanes are exempt from priority parking: stopping one lane would
		// not free the worker until the whole batch ends.
		j.inBatch = true
		j.attempts = 1
		enq := j.enqueuedAt
		j.mu.Unlock()
		j.trace.Span("queued", enq, now.Sub(enq))
		f.obs.queueWaitObs(now.Sub(enq))
		f.cfg.Tenants.ObserveQueueWait(j.Spec.Tenant, now.Sub(enq))
		ctxs[len(live)] = ctx
		timeouts[len(live)] = timeout
		waits[len(live)] = now.Sub(enq)
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	ctxs, timeouts, waits = ctxs[:len(live)], timeouts[:len(live)], waits[:len(live)]
	for _, j := range live {
		f.journalStart(j)
	}

	f.mu.Lock()
	f.running += len(live)
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.running -= len(live)
		f.mu.Unlock()
	}()

	// These jobs run as lanes of one batch — including a one-lane "batch"
	// (the group's other jobs were canceled between claim and start, or
	// the queue simply held one job of this key): BatchEngine.Step at L=1
	// dispatches to the scalar code path, so there is no batching overhead
	// left to special-case around. Their wait also counts as lane wait (it
	// includes the batch-formation window).
	for i, j := range live {
		f.obs.laneWaitObs(waits[i])
		j.trace.Instant("batch-join", "lanes", strconv.Itoa(len(live)))
	}

	bstart := time.Now()
	preempted, err := f.runBatchAttempt(live, ctxs, timeouts)
	// Watchdog-preempted lanes were retired mid-batch with their lane
	// context already dead; each resumes from its lane checkpoint on a
	// dedicated scalar engine with a fresh wall-clock budget, continuing
	// the lane's attempt count under the retry policy.
	for _, l := range preempted {
		// The lane's stepping is covered by its retire() span; this one
		// covers the rest of the batch run plus the wait for a scalar
		// resume slot, so the trace timeline stays gap-free.
		live[l].trace.Span("run", bstart, time.Since(bstart),
			"attempt", "1", "outcome", "preempted")
		f.retryScalarLane(live[l], timeouts[l])
	}
	if err == nil {
		return
	}
	// Batch-level failure: every still-unfinished lane shares its fate.
	// Transient errors (panics, injected faults) get per-job retries on
	// dedicated scalar engines — resuming from lane checkpoints when they
	// exist; deterministic errors fail everyone the same way a solo run
	// would.
	for i, j := range live {
		j.mu.Lock()
		terminal := j.status.Terminal()
		j.mu.Unlock()
		if terminal {
			continue
		}
		// Cover the failed batch attempt — including this lane's wait for
		// its turn in the sequential fallback below (earlier lanes' scalar
		// retries run first). Recorded here rather than inside
		// runBatchAttempt so a panic that unwinds past the compile still
		// leaves no hole in the timeline.
		j.trace.Span("run", bstart, time.Since(bstart),
			"attempt", "1", "outcome", "batch-abort")
		if cerr := ctxs[i].Err(); cerr != nil {
			f.finishRun(j, cerr, timeouts[i])
			continue
		}
		lastErr := err
		if !IsTransient(lastErr) {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Another lane's context died mid-compile and aborted the
				// batch; this lane is innocent — retry it alone.
				lastErr = TransientCause("batch-abort", err)
			} else {
				f.finishRun(j, err, timeouts[i])
				continue
			}
		}
		rerr := f.runRetryLoop(ctxs[i], j, 1, lastErr)
		f.settleRun(j, rerr, timeouts[i])
	}
}

// retryScalarLane resumes one preempted batch lane on a scalar engine.
// The lane's own context was canceled by the watchdog, so the retry
// runs under a fresh context with a fresh timeout budget (the cycles
// already simulated are preserved through the lane checkpoint).
func (f *Farm) retryScalarLane(j *Job, timeout time.Duration) {
	ctx, cancel := context.WithCancel(f.ctx)
	ctx, cancelT := context.WithTimeout(ctx, timeout)
	defer cancelT()
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	preemptErr := TransientCause("preempted",
		fmt.Errorf("preempted by watchdog: no progress for %s", f.cfg.StuckTimeout))
	err := f.runRetryLoop(ctx, j, 1, preemptErr)
	f.settleRun(j, err, timeout)
}

// runBatchAttempt elaborates and compiles once (through the cache), then
// steps all lanes in lockstep. Lanes exit individually; the preempted
// return lists lanes retired by watchdog preemption (still non-terminal,
// to be resumed by the caller), and an error return means a failure
// before or during stepping that the caller must apply to the lanes that
// have not been finalized.
func (f *Farm) runBatchAttempt(jobs []*Job, ctxs []context.Context, timeouts []time.Duration) (preempted []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = TransientCause("panic", fmt.Errorf("panic: %v", r))
		}
	}()
	faults := f.cfg.Faults
	if f.injectFault != nil {
		for _, j := range jobs {
			if ferr := f.injectFault(j, 0); ferr != nil {
				return preempted, ferr
			}
		}
	}
	if faults.Fire(faultinject.BatchTransient) {
		return preempted, TransientCause("fault", errors.New("faultinject: transient batch failure"))
	}

	cstart := time.Now()
	cd, err := f.compileSpec(ctxs[0], jobs[0])
	// One shared compile serves every lane; each lane's trace records it
	// so per-job timelines stay complete.
	for _, j := range jobs {
		j.trace.Span("compile", cstart, time.Since(cstart),
			"hit", strconv.FormatBool(cd.hit), "design_hit", strconv.FormatBool(cd.designHit),
			"shared", "true")
	}
	if err != nil {
		return preempted, err
	}
	c, cv := cd.c, cd.cv
	for _, j := range jobs {
		j.mu.Lock()
		j.hash, j.hashed = cd.hash, true
		j.cacheHit = cd.hit
		j.mu.Unlock()
	}

	lanes := len(jobs)
	be, err := sim.NewBatch(cv.Program, cv.Activity, lanes)
	if err != nil {
		return preempted, err
	}
	if faults.Armed(faultinject.StepStall) {
		// The stall sleeps against the farm context (not a lane's): lane
		// contexts come and go as lanes retire, and the sleep is bounded
		// by the configured stall duration anyway.
		be.OnStep = func() {
			if faults.Fire(faultinject.StepStall) {
				faults.Sleep(f.ctx)
			}
		}
	}
	drives := make([]func(int), lanes)
	budgets := make([]int, lanes)
	names := make([]string, lanes)
	maxBudget := 0
	for l, j := range jobs {
		wl, werr := workloadByName(j.Spec.Workload)
		if werr != nil {
			return preempted, werr
		}
		drives[l] = wl.WithSeed(j.Spec.Seed).NewLaneDrive(be, l)
		budgets[l] = j.Spec.Cycles
		names[l] = wl.Name
		if budgets[l] > maxBudget {
			maxBudget = budgets[l]
		}
	}

	// Lockstep loop. Cancellation, timeouts, and the watchdog heartbeat
	// bite at chunk boundaries (as in the scalar path); a lane reaching
	// its own cycle budget is finalized right after the step that
	// completed it. The compile cost is attributed to lane 0, matching
	// the scalar path where only the job that triggered the compile
	// reports it.
	finished := make([]bool, lanes)
	const chunk = 256
	ckptEvery := f.cfg.CheckpointEvery
	lanesAttr := strconv.Itoa(lanes)
	start := time.Now()
	retire := func(l int) {
		be.Deactivate(l)
		finished[l] = true
		// The lane's run span closes at lane exit: each job's timeline
		// shows its own share of the lockstep run.
		jobs[l].trace.Span("run", start, time.Since(start),
			"attempt", "1", "lanes", lanesAttr)
		f.obs.simRunObs(time.Since(start))
	}
	complete := func(l int) {
		stats := CollectLaneStats(c, cd.hash, cv, be, l, 0, time.Since(start))
		if l == 0 {
			stats.CompileMs = float64(cd.compileTime) / float64(time.Millisecond)
		}
		stats.Workload = names[l]
		j := jobs[l]
		j.mu.Lock()
		j.stats = &stats
		j.mu.Unlock()
		retire(l)
	}
	for cyc := 0; cyc < maxBudget && be.ActiveLanes() > 0; cyc++ {
		if cyc%chunk == 0 {
			for l, j := range jobs {
				if finished[l] {
					continue
				}
				if cerr := ctxs[l].Err(); cerr != nil {
					j.mu.Lock()
					pre := j.preempted
					j.mu.Unlock()
					retire(l)
					if pre && !errors.Is(cerr, context.DeadlineExceeded) && f.ctx.Err() == nil {
						// Watchdog preemption, not a user cancel / timeout /
						// shutdown: leave the lane non-terminal for the
						// caller's scalar resume.
						preempted = append(preempted, l)
					} else {
						f.finishRun(j, cerr, timeouts[l])
					}
					continue
				}
				j.noteProgress(cyc)
			}
			if be.ActiveLanes() == 0 {
				break
			}
			// Crash faults skip the first boundary so every lane gets past
			// at least one checkpoint interval before a crash can hit.
			if cyc != 0 && faults.Fire(faultinject.WorkerCrash) {
				panic("faultinject: worker crash")
			}
		}
		for l := range jobs {
			if !finished[l] {
				drives[l](cyc)
			}
		}
		be.Step()
		for l, j := range jobs {
			if !finished[l] && be.Cycles[l] >= int64(budgets[l]) {
				complete(l)
				f.finishRun(j, nil, timeouts[l])
			}
		}
		if ckptEvery > 0 && (cyc+1)%ckptEvery == 0 {
			for l, j := range jobs {
				if finished[l] || cyc+1 >= budgets[l] {
					continue
				}
				if snap, serr := be.SaveLane(l); serr == nil {
					f.recordCheckpoint(j, snap)
				}
			}
		}
	}
	wall := time.Since(start)
	var cycles int64
	for l := range jobs {
		cycles += be.Cycles[l]
		f.cfg.Tenants.ChargeCycles(jobs[l].Spec.Tenant, be.Cycles[l])
	}
	f.mu.Lock()
	f.simCycles += cycles
	f.simWall += wall
	f.mu.Unlock()
	return preempted, nil
}
