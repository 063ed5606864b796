package farm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"dedupsim/internal/faultinject"
	"dedupsim/internal/sim"
)

// The run path. Every attempt of every job — a coalesced group's run, a
// solo job, a retry, a parked job's resume, a recovered or migrated-in
// job — is one runGroup over 1..MaxLanes jobs stepping as lanes of one
// sim.BatchEngine. A one-lane batch engine is what sim.Engine is (DESIGN.md,
// "One engine"), so a solo job pays nothing for sharing the path. Who runs alone is a scheduling
// rule in takeBatch, not a code path here, and a lane whose attempt fails
// retryably runs again alone, as a group of one, resuming from its own
// lane checkpoint.

// lane is one job's seat in the run path. ctx is the job-level context
// (user cancel and the wall-clock timeout), which outlives any one
// attempt; the other fields describe the current attempt.
type lane struct {
	j       *Job
	ctx     context.Context
	timeout time.Duration

	attempt int       // zero-based attempt index
	start   time.Time // when the attempt started
	err     error     // how the attempt ended, once it has
}

// serve starts a group claimed by takeBatch and drives it to the end: one
// run of the whole group, then, for each lane whose attempt failed
// retryably, runs alone under the retry policy.
func (f *Farm) serve(jobs []*Job) {
	now := time.Now()
	var ls []*lane
	for _, j := range jobs {
		timeout := f.jobTimeout(j.Spec)
		ctx, cancel := context.WithTimeout(f.ctx, timeout)
		defer cancel()
		j.mu.Lock()
		if j.status != StatusQueued {
			// Canceled between claim and start.
			j.mu.Unlock()
			continue
		}
		j.status = StatusRunning
		j.started = now
		j.progressAt = now
		j.cancel = cancel
		enq := j.enqueuedAt
		j.mu.Unlock()
		// The queued span ends on the instant the first run span starts,
		// so the trace tiles without a gap.
		wait := now.Sub(enq)
		j.trace.Span("queued", enq, wait)
		f.obs.queueWait.Observe(wait)
		f.cfg.Tenants.ObserveQueueWait(j.Spec.Tenant, wait)
		if len(jobs) > 1 {
			// A coalesced job's wait includes the batch-formation window.
			f.obs.laneWait.Observe(wait)
		}
		ls = append(ls, &lane{j: j, ctx: ctx, timeout: timeout, start: now})
	}
	if len(ls) == 0 {
		return
	}
	if len(ls) > 1 {
		for _, l := range ls {
			l.j.trace.Instant("batch-join", "lanes", strconv.Itoa(len(ls)))
		}
	}
	f.mu.Lock()
	f.running += len(ls)
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.running -= len(ls)
		f.mu.Unlock()
	}()

	for _, l := range f.runGroup(ls) {
		f.rerun(l)
	}
}

// rerun retries a lane whose attempt failed retryably: alone, as a group
// of one, resuming from its newest checkpoint, with backoff between
// attempts, until it settles. Its previous run span closes here rather
// than at the failure, so the trace also covers its wait behind the
// group's other re-runs.
func (f *Farm) rerun(l *lane) {
	for {
		f.endRun(l)
		l.attempt++
		f.recordRetry(l.j, transientCause(l.err))
		if err := f.backoff(l.ctx, l.j, l.attempt); err != nil {
			f.finishRun(l.j, err, l.timeout)
			return
		}
		l.start = time.Now()
		if len(f.runGroup([]*lane{l})) == 0 {
			return
		}
	}
}

// runGroup runs one attempt of a group of 1..MaxLanes jobs and settles
// each lane as it leaves: its budget reached, canceled, timed out,
// preempted, parked, or ended with the whole attempt (a panic, an
// injected fault, a compile error). It returns the lanes whose attempt
// failed retryably, their run spans still open.
func (f *Farm) runGroup(ls []*lane) (retry []*lane) {
	// Per-attempt contexts: the watchdog preempts (and a priority park
	// stops) an attempt by canceling its context while the job's stays
	// live, so the lane can run again from its last checkpoint.
	actxs := make([]context.Context, len(ls))
	for i, l := range ls {
		actx, acancel := context.WithCancel(l.ctx)
		defer acancel()
		actxs[i] = actx
		l.j.mu.Lock()
		l.j.attempts = l.attempt + 1
		l.j.lanes = len(ls)
		l.j.preempted, l.j.parked = false, false
		l.j.attemptCancel = acancel
		l.j.progressAt = l.start
		l.j.mu.Unlock()
	}
	exited := make([]bool, len(ls))
	exit := func(i int, err error) {
		exited[i] = true
		if f.settle(ls[i], err) {
			retry = append(retry, ls[i])
		}
	}
	err := f.simulate(ls, actxs, exit)
	for i := range ls {
		if !exited[i] {
			exit(i, err)
		}
	}
	return retry
}

// settle decides what follows a lane's attempt. It reports true when the
// lane should run again — a retryable failure with retries left — and
// leaves its run span open. Otherwise the job finishes (or, parked, goes
// back to the queue) and only then does the run span close, so a
// finished job's done event falls inside its last run span.
func (f *Farm) settle(l *lane, err error) bool {
	j := l.j
	j.mu.Lock()
	j.attemptCancel = nil
	parked, preempted := j.parked, j.preempted
	j.mu.Unlock()
	canceled := errors.Is(err, context.Canceled)
	switch {
	case err == nil:
	case l.ctx.Err() != nil:
		// The job itself was canceled or ran out of time.
		err = l.ctx.Err()
	case parked && canceled:
		err = errParked
	case preempted && canceled:
		err = TransientCause("preempted",
			fmt.Errorf("preempted by watchdog: no progress for %s", f.cfg.StuckTimeout))
	case canceled || errors.Is(err, context.DeadlineExceeded):
		// Another lane's context ended the group's shared compile; this
		// lane is innocent.
		err = TransientCause("batch-abort", err)
	}
	l.err = err
	if IsTransient(err) && l.attempt < f.cfg.MaxRetries {
		return true
	}
	if errors.Is(err, errParked) {
		f.requeueParked(j)
	} else {
		f.finishRun(j, err, l.timeout)
	}
	f.endRun(l)
	return false
}

// endRun closes the lane's run span. It covers the whole attempt from
// its start — compile, engine construction and restore included, failed
// attempts too — so a job's spans account for its wall time even under
// chaos.
func (f *Farm) endRun(l *lane) {
	attrs := []string{"attempt", strconv.Itoa(l.attempt + 1), "outcome", traceOutcome(l.err)}
	l.j.mu.Lock()
	lanes := l.j.lanes
	l.j.mu.Unlock()
	if lanes > 1 {
		attrs = append(attrs, "lanes", strconv.Itoa(lanes))
	}
	l.j.trace.Span("run", l.start, time.Since(l.start), attrs...)
}

// simulate is the body of an attempt: compile once, build one
// BatchEngine with a lane per job, restore a group of one from its
// checkpoint, and step the lanes in lockstep. It calls exit for each
// lane that leaves the loop on its own and returns the error that ends
// the attempt for every lane still in it (nil when none is).
func (f *Farm) simulate(ls []*lane, actxs []context.Context, exit func(int, error)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// A panic in elaboration or simulation is treated as transient:
			// the retry isolates one-off corruption, and a deterministic
			// panic exhausts the retry budget and fails the job.
			err = TransientCause("panic", fmt.Errorf("panic: %v", r))
		}
	}()
	if f.injectFault != nil {
		for _, l := range ls {
			if ferr := f.injectFault(l.j, l.attempt); ferr != nil {
				return ferr
			}
		}
	}
	faults := f.cfg.Faults
	if len(ls) > 1 && faults.Fire(faultinject.BatchTransient) {
		return TransientCause("fault", errors.New("faultinject: transient batch failure"))
	}

	// One compile, under lane 0's attempt context, serves every lane; each
	// lane's trace records it so per-job timelines stay complete.
	cstart := time.Now()
	cd, err := f.compileSpec(actxs[0], ls[0].j)
	attrs := []string{"hit", strconv.FormatBool(cd.hit), "design_hit", strconv.FormatBool(cd.designHit)}
	if len(ls) > 1 {
		attrs = append(attrs, "shared", "true")
	}
	cdur := time.Since(cstart)
	for _, l := range ls {
		l.j.trace.Span("compile", cstart, cdur, attrs...)
		if cd.c != nil {
			l.j.mu.Lock()
			l.j.hash, l.j.hashed = cd.hash, true
			l.j.cacheHit = cd.hit && err == nil
			l.j.mu.Unlock()
		}
	}
	if err != nil {
		return err
	}
	c, cv := cd.c, cd.cv

	// The Program is shared read-only across workers; the engine holds
	// this group's private state, temps and dirty masks.
	be, err := sim.NewBatch(cv.Program, cv.Activity, len(ls))
	if err != nil {
		return err
	}
	if faults.Armed(faultinject.StepStall) {
		// A stall ends as soon as any lane's attempt does, so the watchdog
		// unsticks a stalled attempt by preempting it.
		stall, unstall := context.WithCancel(f.ctx)
		defer unstall()
		for _, a := range actxs {
			context.AfterFunc(a, unstall)
		}
		be.OnStep = func() {
			if faults.Fire(faultinject.StepStall) {
				faults.Sleep(stall)
			}
		}
	}

	// Only a group of one resumes: lanes step in lockstep from one cycle,
	// so takeBatch runs a job holding a checkpoint alone. VCD jobs restart
	// from cycle 0 — the waveform must cover the whole run — and a
	// shape-mismatched snapshot (impossible while compiles are
	// deterministic) is discarded rather than trusted.
	resume := 0
	if j := ls[0].j; len(ls) == 1 && !j.Spec.VCD {
		j.mu.Lock()
		ckpt := j.checkpoint
		j.mu.Unlock()
		if ckpt != nil && be.RestoreLane(0, ckpt) == nil {
			resume = int(ckpt.Cycles)
			f.mu.Lock()
			f.cyclesSaved += int64(resume)
			f.mu.Unlock()
			j.trace.Instant("resume", "cycle", strconv.Itoa(resume))
		}
	}
	drives := make([]func(int), len(ls))
	names := make([]string, len(ls))
	maxBudget := 0
	for i, l := range ls {
		wl, werr := workloadByName(l.j.Spec.Workload)
		if werr != nil {
			return werr
		}
		// The drive resolves input handles once, so the cycle loop does no
		// string hashing.
		drives[i] = wl.WithSeed(l.j.Spec.Seed).NewLaneDriveFrom(be, i, resume)
		names[i] = wl.Name
		maxBudget = max(maxBudget, l.j.Spec.Cycles)
		l.j.mu.Lock()
		l.j.resumedFrom = int64(resume)
		l.j.mu.Unlock()
	}

	// VCD jobs run alone too (takeBatch), so a waveform is lane 0's.
	var vcdBuf bytes.Buffer
	var vcd *sim.VCDWriter
	var prober *sim.EngineProber
	if ls[0].j.Spec.VCD {
		prober = sim.NewEngineProber(cv.Program, func(s int32) uint64 { return be.Slot(0, s) }, c)
		var probes []string
		for _, n := range sim.ProbeNames(c) {
			if _, _, ok := prober.Probe(n); ok {
				probes = append(probes, n)
			}
		}
		if vcd, err = sim.NewVCDWriter(&vcdBuf, c, probes); err != nil {
			return fmt.Errorf("vcd: %w", err)
		}
	}

	start := time.Now()
	checkpoint := func(i int) {
		if snap, serr := be.SaveLane(i); serr == nil {
			f.recordCheckpoint(ls[i].j, snap)
		}
	}
	// retire takes a lane out of the lockstep loop, accounts the cycles it
	// executed this attempt, and settles it.
	retire := func(i int, err error) {
		be.Deactivate(i)
		executed := be.Cycles[i] - int64(resume)
		f.mu.Lock()
		f.simCycles += executed
		f.mu.Unlock()
		f.cfg.Tenants.ChargeCycles(ls[i].j.Spec.Tenant, executed)
		f.obs.simRun.Observe(time.Since(start))
		exit(i, err)
	}
	// complete records a lane's results. The compile cost is reported by
	// lane 0, whose job triggered the compile.
	complete := func(i int) error {
		compile := time.Duration(0)
		if i == 0 {
			compile = cd.compileTime
		}
		stats := CollectLaneStats(c, cd.hash, cv, be, i, compile, time.Since(start))
		stats.Workload = names[i]
		if vcd != nil {
			if err := vcd.Close(); err != nil {
				return fmt.Errorf("vcd write: %w", err)
			}
		}
		j := ls[i].j
		j.mu.Lock()
		j.stats = &stats
		if vcd != nil {
			j.vcd = vcdBuf.Bytes()
		}
		j.mu.Unlock()
		return nil
	}

	// Simulate in chunks so cancellation, timeouts, and the progress
	// heartbeat run between chunks without a per-cycle context check on
	// the hot path. A lane leaves at the boundary where it sees its
	// attempt context end, or right after the step that completes its own
	// budget; the others keep stepping.
	const chunk = 256
	ckptEvery := f.cfg.CheckpointEvery
	for cyc := resume; cyc < maxBudget && be.ActiveLanes() > 0; cyc++ {
		if cyc%chunk == 0 {
			for i, l := range ls {
				if !be.LaneActive(i) {
					continue
				}
				if cerr := actxs[i].Err(); cerr != nil {
					// A parked attempt snapshots at the boundary where it
					// noticed the cancel, so the requeued job loses at most
					// one chunk (≤ CheckpointEvery) of cycles.
					l.j.mu.Lock()
					parked := l.j.parked
					l.j.mu.Unlock()
					if parked && vcd == nil && cyc > resume {
						checkpoint(i)
					}
					retire(i, cerr)
					continue
				}
				l.j.noteProgress(cyc)
			}
			if be.ActiveLanes() == 0 {
				break
			}
			// Crash faults skip the attempt's first boundary so a resumed
			// attempt always gets past its checkpoint before it can crash
			// again — injected chaos must not be able to livelock a job.
			if cyc != resume && faults.Fire(faultinject.WorkerCrash) {
				panic("faultinject: worker crash")
			}
		}
		for i, drive := range drives {
			if be.LaneActive(i) {
				drive(cyc)
			}
		}
		be.Step()
		if vcd != nil {
			if err := vcd.Sample(prober, cyc); err != nil {
				return fmt.Errorf("vcd write: %w", err)
			}
		}
		for i, l := range ls {
			switch {
			case !be.LaneActive(i):
			case be.Cycles[i] >= int64(l.j.Spec.Cycles):
				retire(i, complete(i))
			case ckptEvery > 0 && vcd == nil && (cyc+1)%ckptEvery == 0:
				checkpoint(i)
			}
		}
	}
	// A lane restored at or past its budget never stepped.
	for i := range ls {
		if be.LaneActive(i) {
			retire(i, complete(i))
		}
	}
	f.mu.Lock()
	f.simWall += time.Since(start)
	f.mu.Unlock()
	return nil
}
