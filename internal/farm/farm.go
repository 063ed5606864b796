// Package farm is a long-running simulation-farm service: a job queue and
// bounded worker pool running many simulations concurrently as lanes of
// sim.BatchEngine instances (one lane for a solo job; see run.go), in
// front of a content-addressed compile cache. It applies the paper's
// "don't repeat yourself" principle one level up: within one design, the
// dedup flow shares one kernel per partition class; across the jobs of a
// verification farm, the compile cache shares one compiled Program per
// structural circuit hash, so a thousand regressions of the same design
// pay for one compile and share one read-only code/table footprint.
//
// The farm is built to survive partial failure (see DESIGN.md, "Failure
// model"): transient faults are retried with exponential backoff and
// resume from periodic checkpoints instead of cycle 0, a watchdog
// preempts simulations that stop making progress, admission is bounded
// (load shedding with HTTP 429), and shutdown drains in-flight work.
// Every failure mode is injectable through internal/faultinject for
// deterministic chaos testing.
package farm

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/durable"
	"dedupsim/internal/faultinject"
	"dedupsim/internal/harness"
	"dedupsim/internal/obs"
	"dedupsim/internal/partition"
	"dedupsim/internal/sim"
	"dedupsim/internal/tenant"
)

// Config sizes the farm.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// Submit fails with ErrQueueFull when full (default 1024).
	QueueDepth int
	// MaxCycles caps any single job's cycle budget (default 1_000_000).
	MaxCycles int
	// DefaultTimeout bounds a job's wall-clock run when the spec sets no
	// timeout (default 2 minutes).
	DefaultTimeout time.Duration
	// RetainJobs caps how many terminal jobs (and their stats/VCD
	// buffers) stay queryable; the oldest-finished are pruned beyond it
	// so a long-running daemon's memory stays bounded (default 1024,
	// negative = unlimited).
	RetainJobs int
	// MaxLanes opts in to batch coalescing: queued jobs with identical
	// design + variant (workload, seed, and cycle budget may differ) are
	// run as lanes of one lockstep sim.BatchEngine, up to MaxLanes per
	// batch, amortizing interpreter dispatch across them. 0 or 1
	// disables coalescing; values beyond sim.MaxBatchLanes are clamped.
	// Jobs requesting VCD capture never coalesce. Per-job semantics are
	// preserved: each lane keeps its own stimulus, cycle budget,
	// timeout, cancellation, and SimStats.
	MaxLanes int

	// CheckpointEvery, when positive, snapshots each running non-VCD
	// simulation every N cycles; a retried job resumes from its last
	// checkpoint instead of cycle 0 (0 = no checkpoints). Every lane of a
	// coalesced group checkpoints too, and a failed lane's retry runs alone
	// from its own lane snapshot.
	CheckpointEvery int
	// MaxRetries is how many times a transiently failed job is retried
	// (default 1, i.e. the historical retry-once policy; negative
	// disables retries).
	MaxRetries int
	// RetryBackoff is the base delay between retry attempts, doubled per
	// attempt (capped at 30s) with ±50% jitter; 0 retries immediately.
	RetryBackoff time.Duration
	// StuckTimeout, when positive, arms the watchdog: a running job that
	// reports no progress for this long is preempted — its attempt is
	// canceled and retried (resuming from the last checkpoint) under the
	// normal retry policy. 0 disables the watchdog.
	StuckTimeout time.Duration
	// Faults, when non-nil, injects deterministic faults at the
	// registered points (see internal/faultinject). Nil — the production
	// default — costs a single pointer test per site.
	Faults *faultinject.Registry

	// Tenants is the multi-tenant QoS registry: per-tenant admission
	// buckets, fair-share weights, priority classes, and accounting (see
	// internal/tenant). Nil gets a registry with no limits — every
	// tenant unlimited at weight 1 — so single-tenant deployments pay
	// only the bookkeeping. A process embedding both a farm and a router
	// may share one registry between them.
	Tenants *tenant.Registry

	// FetchArtifact, when non-nil, is consulted once per cold compile key
	// before compiling locally: given the structural hash and variant it
	// returns an encoded compile artifact (EncodeArtifact), typically
	// fetched from a peer node or the fleet router. A successful fetch
	// installs as a warm cache entry — the job never compiles; any error
	// or corrupt payload falls back to a local compile.
	FetchArtifact func(ctx context.Context, hash, variant string) ([]byte, error)

	// DataDir, when set, makes the farm durable: job lifecycle is
	// journaled, checkpoints and compile artifacts persist under
	// this directory, and Open recovers all of it after a crash (see
	// durable.go). Empty keeps the farm purely in-memory.
	DataDir string
	// Fsync selects the journal sync policy ("always", "interval",
	// "none"; default "interval") — see durable.FsyncPolicy for the
	// crash-loss guarantees of each. Ignored without DataDir.
	Fsync string
	// FsyncInterval is the group-commit period for the "interval"
	// policy (default 100ms).
	FsyncInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 1_000_000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 1024
	}
	if c.MaxLanes > sim.MaxBatchLanes {
		c.MaxLanes = sim.MaxBatchLanes
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 1
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.Tenants == nil {
		c.Tenants = tenant.NewRegistry(tenant.Config{})
	}
	return c
}

// ErrQueueFull reports an admission rejection: the pending queue is at
// QueueDepth. The HTTP layer maps it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("queue full")

// ErrDraining reports that the farm is shutting down gracefully and no
// longer accepts jobs. The HTTP layer maps it to 503.
var ErrDraining = errors.New("draining (not accepting new jobs)")

// ThrottledError reports a per-tenant admission rejection: the tenant's
// token bucket is empty while the rest of the farm is unaffected. It is
// deliberately distinct from ErrQueueFull — the queue may be nearly
// empty — and carries the tenant's own refill delay, which the HTTP
// layer serves as the Retry-After header.
type ThrottledError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *ThrottledError) Error() string {
	return fmt.Sprintf("farm: tenant %q over admission rate (retry in %s)", e.Tenant, e.RetryAfter)
}

// errParked marks an attempt stopped by priority preemption: the job
// was checkpointed and must be requeued, not finished. Non-transient on
// purpose — it exits the retry loop immediately so the worker frees up
// for the higher-priority job.
var errParked = errors.New("parked for higher-priority work")

// Job is one queued or running simulation. All mutable fields are behind
// mu; external readers use View.
type Job struct {
	ID   string
	Spec JobSpec

	farm *Farm
	// batch is the job's coalescing key, design content key included;
	// computed once when the job is admitted, immutable after.
	batch batchKey
	mu    sync.Mutex

	status   Status
	attempts int
	err      error
	cacheHit bool
	hash     circuit.Hash
	hashed   bool
	stats    *SimStats
	vcd      []byte

	// checkpoint is the latest periodic snapshot (non-VCD jobs only);
	// retries resume from it. Dropped on terminal transition so retained
	// jobs don't pin snapshot memory.
	checkpoint  *sim.Snapshot
	resumedFrom int64 // cycles skipped by the latest attempt's resume

	// attemptCancel cancels only the current attempt; the watchdog uses
	// it to preempt a stuck attempt without killing the job. preempted
	// distinguishes that preemption from a user cancel on the same
	// context. progressAt/progressCycle are the watchdog's heartbeat,
	// refreshed at every cycle-chunk boundary.
	attemptCancel context.CancelFunc
	preempted     bool
	progressAt    time.Time
	progressCycle int64

	// parked marks the current attempt as stopped by priority
	// preemption: the attempt checkpoints at its next chunk boundary and
	// the job goes back to the queue. lanes is the size of the group the
	// current attempt runs in; only a group of one can be parked
	// (stopping one lane would not free the worker until the group ends).
	parked bool
	lanes  int

	created time.Time
	// enqueuedAt is the last time the job entered the pending queue:
	// submission, or a requeue after being parked. Per-tenant queue-wait
	// measures from here, so a parked job's earlier run doesn't count as
	// waiting.
	enqueuedAt time.Time
	started    time.Time
	finished   time.Time

	// trace is the job's lifecycle trace ring. Set once before the job
	// is visible, immutable after.
	trace *obs.Trace

	cancel context.CancelFunc
	done   chan struct{}
}

// View snapshots the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:            j.ID,
		Spec:          j.Spec,
		Status:        j.status,
		Attempts:      j.attempts,
		CacheHit:      j.cacheHit,
		Stats:         j.stats,
		HasVCD:        len(j.vcd) > 0,
		ResumedCycles: j.resumedFrom,
		TraceID:       j.Spec.TraceID,
		CreatedAt:     j.created,
		StartedAt:     j.started,
		FinishedAt:    j.finished,
	}
	if j.hashed {
		v.CircuitHash = j.hash.String()
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.checkpoint != nil {
		v.CheckpointCycle = j.checkpoint.Cycles
	}
	// Views travel over the API on every list/poll; the imported
	// checkpoint blob stays server-side (the router re-ships its own copy
	// on migration, and the journal records j.Spec directly).
	v.Spec.Checkpoint = nil
	return v
}

// CheckpointBytes returns the job's newest in-memory checkpoint, encoded
// for transfer (nil when the job has none). The fleet router pulls these
// while a node is alive so a later migration can resume the job
// elsewhere even though the dead node can no longer be asked.
func (j *Job) CheckpointBytes() []byte {
	j.mu.Lock()
	snap := j.checkpoint
	j.mu.Unlock()
	if snap == nil {
		return nil
	}
	return snap.Encode()
}

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// VCD returns the captured waveform, or nil.
func (j *Job) VCD() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.vcd
}

// noteProgress refreshes the watchdog heartbeat.
func (j *Job) noteProgress(cyc int) {
	j.mu.Lock()
	j.progressCycle = int64(cyc)
	j.progressAt = time.Now()
	j.mu.Unlock()
}

// setCheckpoint replaces the job's resume point (the latest snapshot
// wins; one snapshot per job bounds checkpoint memory).
func (j *Job) setCheckpoint(s *sim.Snapshot) {
	j.mu.Lock()
	j.checkpoint = s
	j.mu.Unlock()
}

// transientError marks failures worth retrying (worker panics, injected
// faults, watchdog preemptions) as opposed to deterministic
// compile/validation errors that would fail identically again. cause
// labels the retry for the retries-by-cause metric.
type transientError struct {
	cause string
	err   error
}

func (e transientError) Error() string { return "transient: " + e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// Transient wraps err as retryable.
func Transient(err error) error { return transientError{cause: "transient", err: err} }

// TransientCause wraps err as retryable with a metric label ("panic",
// "preempted", "fault", ...).
func TransientCause(cause string, err error) error { return transientError{cause: cause, err: err} }

// IsTransient reports whether err is retryable.
func IsTransient(err error) bool {
	var t transientError
	return errors.As(err, &t)
}

// transientCause extracts the retry-cause label.
func transientCause(err error) string {
	var t transientError
	if errors.As(err, &t) {
		return t.cause
	}
	return "other"
}

// Farm is the simulation-farm service.
type Farm struct {
	cfg   Config
	cache *CompileCache
	// designs interns elaborated designs by content (see designs.go). It
	// lives and dies with the farm, like the cache.
	designs *designStore

	// store is the durability tier (nil without Config.DataDir: every
	// durability hook is then one nil test). recovery summarizes the
	// startup replay; immutable once workers start. durableErrs counts
	// failed journal/checkpoint writes (atomic: bumped under f.mu and
	// j.mu alike).
	store       *durable.Store
	recovery    *RecoveryStats
	durableErrs atomic.Int64

	// obs holds the stage-latency histograms (see obs.go).
	obs farmObs

	mu       sync.Mutex
	closed   bool
	draining bool
	jobs     map[string]*Job
	order    []string // submission order, for listing
	finished []string // terminal jobs oldest-first, for pruning
	nextID   int64

	// pending is the submission-ordered queue. A slice (not a channel)
	// so takeBatch can scan past the head and claim same-design jobs as
	// lanes of one batch. Canceled-while-queued jobs stay in place and
	// are skipped lazily. wake carries one token per Submit; a worker
	// that consumes a token drains batches until the queue is empty, so
	// dropped tokens (full channel) never strand work.
	pending []*Job
	wake    chan struct{}
	running int

	wg      sync.WaitGroup
	ctx     context.Context
	stop    context.CancelFunc
	started time.Time

	// counters (guarded by mu)
	completed        int64
	failed           int64
	canceled         int64
	retries          int64
	retriesByCause   map[string]int64
	shed             int64 // submissions rejected at admission (queue full)
	preempts         int64 // attempts preempted by the watchdog
	parks            int64 // attempts parked by priority preemption
	checkpoints      int64 // snapshots taken
	cyclesSaved      int64 // cycles skipped by checkpoint resumes
	artifactsFetched int64 // compile artifacts imported from peers
	simCycles        int64
	simWall          time.Duration
	compileWall      time.Duration

	// injectFault, when set (tests), runs before each attempt and may
	// return an error standing in for an environment failure.
	injectFault func(j *Job, attempt int) error
}

// New starts a farm with cfg.Workers workers (plus a watchdog when
// StuckTimeout is set). It panics if cfg requests durability that
// cannot be established; durable callers should use Open and handle
// the error.
func New(cfg Config) *Farm {
	f, err := Open(cfg)
	if err != nil {
		panic(err) // only reachable with Config.DataDir set
	}
	return f
}

func newFarmContext() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// startWorkers launches the worker pool and watchdog. Called after
// recovery so replayed jobs re-enter the queue before anything runs.
func (f *Farm) startWorkers() {
	for i := 0; i < f.cfg.Workers; i++ {
		f.wg.Add(1)
		go f.worker()
	}
	if f.cfg.StuckTimeout > 0 {
		interval := f.cfg.StuckTimeout / 4
		if interval < 5*time.Millisecond {
			interval = 5 * time.Millisecond
		}
		if interval > time.Second {
			interval = time.Second
		}
		f.wg.Add(1)
		go f.watchdog(interval)
	}
}

// Close stops accepting work, cancels running jobs, and waits for the
// workers to exit. Queued jobs are marked canceled. For a graceful
// shutdown that lets in-flight work finish, call Drain first.
//
// A durable farm freezes its store before canceling anything:
// shutdown-induced cancellations are deliberately not journaled, so
// those jobs re-admit on the next Open (at-least-once). Records already
// appended are flushed on the way out.
func (f *Farm) Close() {
	if f.store != nil {
		f.store.Freeze()
	}
	f.stop()
	f.mu.Lock()
	f.closed = true
	for _, j := range f.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	// Detach the queue under f.mu: a worker mid-takeBatch has either
	// already claimed (removed) its jobs or will find the queue empty.
	pending := f.pending
	f.pending = nil
	f.mu.Unlock()
	f.wg.Wait()
	// Whatever never reached a worker is canceled (finish is a no-op for
	// jobs Cancel already made terminal).
	for _, j := range pending {
		f.finish(j, StatusCanceled, errShutDown)
	}
	if f.store != nil {
		f.store.Close()
	}
}

// BeginDrain stops admission — Submit fails with ErrDraining and Ready
// flips false (the /readyz probe) — while queued and running jobs keep
// going. Idempotent.
func (f *Farm) BeginDrain() {
	f.mu.Lock()
	f.draining = true
	f.mu.Unlock()
}

// Ready reports whether the farm accepts new jobs (the readiness probe).
func (f *Farm) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.draining && !f.closed
}

// Drain stops admission and blocks until every queued and running job
// reaches a terminal state, or ctx expires (returning its error with
// work still outstanding). Callers typically follow with Close.
func (f *Farm) Drain(ctx context.Context) error {
	f.BeginDrain()
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if f.outstanding() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("farm: drain: %w (%d jobs outstanding)", ctx.Err(), f.outstanding())
		case <-t.C:
		}
	}
}

// outstanding counts non-terminal jobs.
func (f *Farm) outstanding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, j := range f.jobs {
		j.mu.Lock()
		if !j.status.Terminal() {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Cache exposes the compile cache (introspection, stats).
func (f *Farm) Cache() *CompileCache { return f.cache }

// Submit validates and enqueues a job, returning its ID. It fails with
// ErrQueueFull when the pending queue is at QueueDepth (load shedding)
// and ErrDraining during graceful shutdown.
func (f *Farm) Submit(spec JobSpec) (*Job, error) {
	if err := spec.normalize(f.cfg); err != nil {
		return nil, err
	}
	// An imported checkpoint (fleet job migration) must decode before
	// admission: a corrupt snapshot is the submitter's error, not a
	// mid-run surprise. A job holding a checkpoint runs alone (takeBatch).
	var ckpt *sim.Snapshot
	if len(spec.Checkpoint) > 0 {
		if spec.VCD {
			return nil, fmt.Errorf("farm: vcd jobs cannot resume from a checkpoint (the waveform must cover the whole run)")
		}
		snap, err := sim.DecodeSnapshot(spec.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("farm: bad checkpoint: %w", err)
		}
		ckpt = snap
	}
	// Every job carries a fleet-wide trace ID: the submitter's (via the
	// spec field or the X-Trace-Id header) when one came in, a fresh one
	// otherwise. It lives in the spec so it journals, recovers, and
	// migrates with the job. Generated outside f.mu (crypto/rand read).
	if spec.TraceID == "" {
		spec.TraceID = obs.NewTraceID()
	}
	// Per-tenant admission runs in front of the bounded-admission path:
	// a tenant over its rate gets throttled with its own refill delay
	// while everyone else is untouched (the registry counts the shed).
	if ra, ok := f.cfg.Tenants.Admit(spec.Tenant); !ok {
		return nil, &ThrottledError{Tenant: spec.Tenant, RetryAfter: ra}
	}
	// Everything proportional to the spec's size — digesting the design
	// for the batch key, marshaling the admit record — happens before
	// f.mu, the lock every dequeue needs too.
	batch := jobBatchKey(spec)
	admit := f.marshalAdmit(spec)
	f.mu.Lock()
	defer f.mu.Unlock()
	// Checked under f.mu (Close sets it under f.mu before draining the
	// queue) so a Submit racing Close can't enqueue after the drain and
	// strand a job in StatusQueued forever.
	if f.closed {
		return nil, fmt.Errorf("farm: closed")
	}
	if f.draining {
		return nil, fmt.Errorf("farm: %w", ErrDraining)
	}
	if f.cfg.Faults.Fire(faultinject.QueuePressure) {
		f.shed++
		f.cfg.Tenants.NoteShed(spec.Tenant)
		return nil, fmt.Errorf("farm: %w (injected queue pressure)", ErrQueueFull)
	}
	if len(f.pending) >= f.cfg.QueueDepth {
		// Canceled-while-queued jobs linger in pending for lazy skipping;
		// compact them out before declaring the queue full.
		f.compactPendingLocked()
	}
	if len(f.pending) >= f.cfg.QueueDepth {
		f.shed++
		f.cfg.Tenants.NoteShed(spec.Tenant)
		return nil, fmt.Errorf("farm: %w (%d jobs)", ErrQueueFull, f.cfg.QueueDepth)
	}
	f.nextID++
	now := time.Now()
	j := &Job{
		ID:         fmt.Sprintf("job-%d", f.nextID),
		Spec:       spec,
		farm:       f,
		batch:      batch,
		status:     StatusQueued,
		created:    now,
		enqueuedAt: now,
		done:       make(chan struct{}),
		checkpoint: ckpt,
	}
	j.trace = obs.NewTrace(spec.TraceID, j.ID)
	j.trace.Instant("submitted")
	if ckpt != nil {
		// A migrated-in job resumes mid-flight; the trace marks where its
		// history continues from.
		j.trace.Instant("migrate-in", "resume_cycle", traceAttrCycle(ckpt.Cycles))
	}
	f.jobs[j.ID] = j
	f.order = append(f.order, j.ID)
	f.pending = append(f.pending, j)
	// Appended under f.mu so admit records land in ID order; recovery
	// re-admits in record order and preserves submission fairness.
	f.journalAdmitLocked(j, admit)
	// The tenant joins the virtual clock at the current floor (idle time
	// earns no scheduling credit) and is accounted one accepted job.
	f.cfg.Tenants.NoteSubmitted(spec.Tenant)
	f.cfg.Tenants.Activate(spec.Tenant)
	select {
	case f.wake <- struct{}{}:
	default:
		// Channel full means at least QueueDepth tokens are outstanding —
		// more than enough draining passes are already owed.
	}
	// With every worker busy, a job from a higher-priority tenant may
	// park the lowest-priority running attempt to free a worker.
	f.maybeParkLocked(spec.Tenant)
	return j, nil
}

// maybeParkLocked parks (checkpoints + requeues) the lowest-priority
// running attempt of a group of one when a job from tenantName outranks
// it and every worker is busy. Caller holds f.mu. Requires checkpoints
// to be on (otherwise parking would restart the victim from cycle 0),
// skips lanes of larger groups and VCD jobs, and is bounded by the
// victim tenant's park-rate bucket so preemption can never livelock a
// tenant.
func (f *Farm) maybeParkLocked(tenantName string) {
	if f.cfg.CheckpointEvery <= 0 || f.running < f.cfg.Workers {
		return
	}
	reg := f.cfg.Tenants
	prio := reg.Priority(tenantName)
	var victim *Job
	victimPrio := 0
	for _, j := range f.jobs {
		j.mu.Lock()
		running := j.status == StatusRunning && j.lanes == 1 && !j.Spec.VCD &&
			j.attemptCancel != nil && !j.parked && !j.preempted
		j.mu.Unlock()
		if !running {
			continue
		}
		p := reg.Priority(j.Spec.Tenant)
		if p >= prio {
			continue
		}
		if victim == nil || p < victimPrio {
			victim, victimPrio = j, p
		}
	}
	if victim == nil || !reg.AllowPark(victim.Spec.Tenant) {
		return
	}
	victim.mu.Lock()
	var cancel context.CancelFunc
	if victim.status == StatusRunning && victim.attemptCancel != nil && !victim.parked {
		victim.parked = true
		cancel = victim.attemptCancel
	}
	victim.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// compactPendingLocked drops terminal (canceled-while-queued) entries
// from the pending queue. Caller holds f.mu.
func (f *Farm) compactPendingLocked() {
	keep := f.pending[:0]
	for _, j := range f.pending {
		j.mu.Lock()
		terminal := j.status.Terminal()
		j.mu.Unlock()
		if !terminal {
			keep = append(keep, j)
		}
	}
	for i := len(keep); i < len(f.pending); i++ {
		f.pending[i] = nil
	}
	f.pending = keep
}

// Job looks up a job by ID.
func (f *Farm) Job(id string) (*Job, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	return j, ok
}

// Jobs lists retained jobs in submission order (terminal jobs beyond
// the retention cap have been pruned).
func (f *Farm) Jobs() []*Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Job, 0, len(f.jobs))
	for _, id := range f.order {
		if j, ok := f.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel cancels a job. Queued jobs are canceled immediately; running
// jobs have their context canceled and stop at the next cycle-chunk
// boundary. Canceling a terminal job is a no-op.
func (f *Farm) Cancel(id string) error {
	j, ok := f.Job(id)
	if !ok {
		return fmt.Errorf("farm: no job %q", id)
	}
	j.mu.Lock()
	switch {
	case j.status.Terminal():
		j.mu.Unlock()
	case j.status == StatusQueued:
		// Transition while still holding j.mu: a worker dequeuing this
		// job concurrently must observe either Queued (and run it) or
		// Canceled (and skip it) — never flip it to Canceled after the
		// worker already moved it to Running.
		f.finishLocked(j, StatusCanceled, errors.New("canceled while queued"))
		j.mu.Unlock()
		f.accountFinish(j)
	default:
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	return nil
}

// WaitJob blocks until the job is terminal or ctx expires.
func (f *Farm) WaitJob(ctx context.Context, id string) (JobView, error) {
	j, ok := f.Job(id)
	if !ok {
		return JobView{}, fmt.Errorf("farm: no job %q", id)
	}
	select {
	case <-j.done:
		return j.View(), nil
	case <-ctx.Done():
		return j.View(), ctx.Err()
	}
}

func (f *Farm) worker() {
	defer f.wg.Done()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-f.wake:
			for {
				batch := f.takeBatch()
				if len(batch) == 0 {
					break
				}
				f.serve(batch)
				if f.ctx.Err() != nil {
					return
				}
			}
		}
	}
}

// watchdog periodically preempts running jobs whose progress heartbeat
// has gone stale: the stuck attempt's context is canceled (the job-level
// context stays live), which the retry loop converts into a retryable
// "preempted" fault that resumes from the last checkpoint.
func (f *Farm) watchdog(interval time.Duration) {
	defer f.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
			f.preemptStuck()
		}
	}
}

func (f *Farm) preemptStuck() {
	cutoff := time.Now().Add(-f.cfg.StuckTimeout)
	for _, j := range f.Jobs() {
		j.mu.Lock()
		var cancel context.CancelFunc
		if j.status == StatusRunning && !j.preempted &&
			j.attemptCancel != nil && j.progressAt.Before(cutoff) {
			j.preempted = true
			cancel = j.attemptCancel
		}
		j.mu.Unlock()
		if cancel != nil {
			cancel()
			f.mu.Lock()
			f.preempts++
			f.mu.Unlock()
		}
	}
}

// batchKey identifies jobs that may share one compiled Program and hence
// one BatchEngine: same design source (by content key, so comparing two
// pending jobs under f.mu never touches their FIRRTL text), simulator
// variant, and tenant. Workload, seed, cycle budget, and timeout may
// differ per lane. The tenant is part of the key so coalescing happens
// within a tenant's runnable set — a batch's cycles are charged to
// exactly one tenant.
type batchKey struct {
	design  DesignKey
	variant string
	tenant  string
}

func jobBatchKey(s JobSpec) batchKey {
	return batchKey{design: s.Key(), variant: s.Variant, tenant: s.Tenant}
}

// resumable reports whether a still-queued job already holds a resume
// checkpoint — a parked, recovered or migrated-in job. Such jobs run
// alone: the lanes of a group step in lockstep from cycle 0, so only a
// group of one resumes.
func resumable(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoint != nil
}

// takeBatch dequeues the next runnable work under weighted fair share:
// the tenant registry picks which queued tenant goes next (highest
// priority class, then smallest virtual time), FIFO order is preserved
// within that tenant, and when coalescing is on up to MaxLanes-1 later
// queued jobs of the same batch key (same tenant included) join as
// lanes. The picked tenant's virtual clock is charged the claimed cycle
// budget at dequeue — stride-style — so concurrent workers spread
// across tenants instead of all draining the minimum-vtime tenant.
// Claimed jobs are removed from pending while still StatusQueued; serve
// re-checks each under its own lock (a racing Cancel may turn one
// terminal first). Who runs alone is decided here and only here: every
// job when MaxLanes ≤ 1, VCD jobs (a waveform samples every cycle of one
// lane), and jobs holding a resume checkpoint.
func (f *Farm) takeBatch() []*Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		// Drop canceled-while-queued entries first so they neither count
		// as a tenant's queued work nor get picked below.
		f.compactPendingLocked()
		if len(f.pending) == 0 {
			return nil
		}
		var names []string
		seen := map[string]struct{}{}
		for _, j := range f.pending {
			if _, ok := seen[j.Spec.Tenant]; !ok {
				seen[j.Spec.Tenant] = struct{}{}
				names = append(names, j.Spec.Tenant)
			}
		}
		who := f.cfg.Tenants.PickTenant(names)

		var batch []*Job
		var key batchKey
		var budget int64
		rest := f.pending[:0]
		for _, j := range f.pending {
			if j.Spec.Tenant != who {
				rest = append(rest, j)
				continue
			}
			j.mu.Lock()
			queued := j.status == StatusQueued
			j.mu.Unlock()
			if !queued {
				continue // turned terminal since the compact: drop
			}
			claim := len(batch) == 0 ||
				(f.cfg.MaxLanes > 1 && len(batch) < f.cfg.MaxLanes &&
					!batch[0].Spec.VCD && !resumable(batch[0]) &&
					!j.Spec.VCD && !resumable(j) && j.batch == key)
			if !claim {
				rest = append(rest, j)
				continue
			}
			if len(batch) == 0 {
				key = j.batch
			}
			batch = append(batch, j)
			budget += int64(j.Spec.Cycles)
		}
		for k := len(rest); k < len(f.pending); k++ {
			f.pending[k] = nil
		}
		f.pending = rest
		if len(batch) == 0 {
			// The picked tenant's queued jobs all went terminal between
			// the compact and the claim; pick again from what's left.
			continue
		}
		f.cfg.Tenants.ChargeVTime(who, budget)
		return batch
	}
}

// jobTimeout resolves a job's wall-clock budget.
func (f *Farm) jobTimeout(s JobSpec) time.Duration {
	if s.TimeoutMs > 0 {
		return time.Duration(s.TimeoutMs) * time.Millisecond
	}
	return f.cfg.DefaultTimeout
}

// recordRetry bumps the retry counters and marks the retry (with its
// cause) in the job's trace. The by-cause map is bounded: causes come
// from a small fixed vocabulary, but the label feeds /stats and
// /metrics, so an unexpected new cause beyond maxRetryCauses lands in
// "other" instead of growing the map without bound.
func (f *Farm) recordRetry(j *Job, cause string) {
	f.mu.Lock()
	f.retries++
	if _, known := f.retriesByCause[cause]; !known && len(f.retriesByCause) >= maxRetryCauses {
		cause = "other"
	}
	f.retriesByCause[cause]++
	f.mu.Unlock()
	j.trace.Instant("retry", "cause", cause)
}

// backoff sleeps before retry `attempt` (1-based): RetryBackoff doubled
// per attempt, capped at 30s, with ±50% jitter so a farm full of
// retrying jobs doesn't thunder back in lockstep. Returns ctx's error
// if it expires mid-sleep; a zero RetryBackoff retries immediately.
func (f *Farm) backoff(ctx context.Context, j *Job, attempt int) error {
	base := f.cfg.RetryBackoff
	if base <= 0 {
		return ctx.Err()
	}
	d := base << uint(attempt-1)
	if max := 30 * time.Second; d > max || d <= 0 {
		d = max
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	start := time.Now()
	defer func() { j.trace.Span("backoff", start, time.Since(start)) }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// compiled is what compileSpec resolves for one attempt: the interned
// design and its Program, and whether each was already resident.
type compiled struct {
	design
	cv          *harness.Compiled
	designHit   bool
	hit         bool          // compile-cache hit
	compileTime time.Duration // 0 on a hit
}

// compileSpec resolves a job's design through the design store and its
// Program through the compile cache, applying compile-stage fault
// injection. The design is returned even when compilation fails (for
// hash reporting).
func (f *Farm) compileSpec(ctx context.Context, j *Job) (out compiled, err error) {
	spec := j.Spec
	out.design, out.designHit, err = f.design(ctx, j.batch.design, spec.DesignSpec)
	if err != nil {
		if errors.Is(err, ErrCompilePanicked) {
			// We coalesced onto an elaboration that panicked under another
			// job; the store dropped the key, so a retry rebuilds.
			err = TransientCause("panic", err)
		}
		return out, err
	}
	variant := harness.Variant(spec.Variant)
	key := CacheKey{Hash: out.hash, Variant: variant}
	// Before paying a compile, ask the fleet: a peer (or the router's
	// replicated artifact cache) may already hold this Program.
	f.fetchArtifactWarm(ctx, key)
	faults := f.cfg.Faults
	compileStart := time.Now()
	out.cv, out.hit, err = f.cache.Get(ctx, key, func() (*harness.Compiled, error) {
		if faults.Fire(faultinject.CompileStall) {
			faults.Sleep(ctx)
		}
		if faults.Fire(faultinject.CompilePanic) {
			panic("faultinject: compile panic")
		}
		return harness.CompileVariant(out.c, variant, partition.Options{})
	})
	if err != nil {
		err = fmt.Errorf("compile: %w", err)
		if errors.Is(err, ErrCompilePanicked) {
			// We coalesced onto a compile that panicked under another job;
			// the cache dropped the entry, so a retry recompiles.
			err = TransientCause("panic", err)
		}
		return out, err
	}
	if !out.hit {
		out.compileTime = time.Since(compileStart)
		f.mu.Lock()
		f.compileWall += out.compileTime
		f.mu.Unlock()
		f.cfg.Tenants.NoteCompile(spec.Tenant)
		f.obs.compile.Observe(out.compileTime)
		// Persist the compiled artifact so a restarted farm decodes it
		// instead of recompiling.
		if data, aerr := EncodeArtifact(out.cv, out.compileTime); aerr == nil {
			f.persistArtifact(key, data)
		}
	}
	return out, nil
}

// requeueParked returns a parked job to the pending queue: status back
// to Queued, checkpoint kept for the resume, enqueue clock reset. The
// next dequeue of its tenant picks it up and the resume path counts the
// cycles the park did not lose.
func (f *Farm) requeueParked(j *Job) {
	j.mu.Lock()
	if j.status.Terminal() {
		// A racing Cancel won; nothing to requeue.
		j.mu.Unlock()
		return
	}
	j.status = StatusQueued
	j.parked = false
	j.preempted = false
	j.cancel = nil
	j.attemptCancel = nil
	j.enqueuedAt = time.Now()
	ckptCycle := int64(0)
	if j.checkpoint != nil {
		ckptCycle = j.checkpoint.Cycles
	}
	j.mu.Unlock()
	j.trace.Instant("parked", "resume_cycle", traceAttrCycle(ckptCycle))
	f.cfg.Tenants.NoteParked(j.Spec.Tenant)
	f.cfg.Tenants.Activate(j.Spec.Tenant)
	f.mu.Lock()
	f.parks++
	f.pending = append(f.pending, j)
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// finishRun maps an attempt error to the job's terminal status.
func (f *Farm) finishRun(j *Job, err error, timeout time.Duration) {
	switch {
	case err == nil:
		f.finish(j, StatusDone, nil)
	case errors.Is(err, context.Canceled):
		f.finish(j, StatusCanceled, errors.New("canceled"))
	case errors.Is(err, context.DeadlineExceeded):
		f.finish(j, StatusFailed, fmt.Errorf("timeout after %s", timeout))
	default:
		f.finish(j, StatusFailed, err)
	}
}

// errShutDown ends the jobs a shutdown stops before they finish.
var errShutDown = errors.New("farm shut down")

// finish moves a job to a terminal status exactly once.
func (f *Farm) finish(j *Job, status Status, err error) {
	j.mu.Lock()
	ok := f.finishLocked(j, status, err)
	j.mu.Unlock()
	if ok {
		f.accountFinish(j)
	}
}

// finishLocked performs the terminal transition with j.mu held,
// reporting whether this call was the one that made the job terminal.
// The caller must follow up with accountFinish (outside j.mu) when it
// returns true.
//
// The transition is journaled before it is published, so a status a
// client can see is already on disk. Once Close or Kill has frozen the
// store nothing more can be made durable: the job then ends canceled by
// the shutdown, its result discarded and unjournaled, and it re-admits
// on restart.
func (f *Farm) finishLocked(j *Job, status Status, err error) bool {
	if j.status.Terminal() {
		return false
	}
	if !f.journalFinish(j.ID, status, err) {
		if status != StatusCanceled {
			status, err = StatusCanceled, errShutDown
		}
		j.stats, j.vcd = nil, nil
	}
	j.status = status
	j.err = err
	j.finished = time.Now()
	// Terminal jobs are retained for the API; their checkpoint is not.
	j.checkpoint = nil
	j.attemptCancel = nil
	j.trace.Instant("done", "status", string(status))
	close(j.done)
	return true
}

// accountFinish updates the farm counters for one terminal transition
// and prunes the oldest-finished jobs beyond the retention cap so the
// jobs map (and its stats/VCD buffers) can't grow without bound.
func (f *Farm) accountFinish(j *Job) {
	j.mu.Lock()
	status := j.status
	e2e := j.finished.Sub(j.created)
	j.mu.Unlock()
	if status == StatusDone {
		f.obs.e2e.Observe(e2e)
	}
	f.mu.Lock()
	switch status {
	case StatusDone:
		f.completed++
	case StatusFailed:
		f.failed++
	case StatusCanceled:
		f.canceled++
	}
	f.finished = append(f.finished, j.ID)
	if f.cfg.RetainJobs >= 0 {
		for len(f.finished) > f.cfg.RetainJobs {
			id := f.finished[0]
			f.finished = f.finished[1:]
			delete(f.jobs, id)
		}
		// Compact the submission-order list once pruning leaves it mostly
		// dangling IDs.
		if len(f.order) > 2*len(f.jobs)+16 {
			keep := f.order[:0]
			for _, id := range f.order {
				if _, ok := f.jobs[id]; ok {
					keep = append(keep, id)
				}
			}
			f.order = keep
		}
	}
	f.mu.Unlock()
	f.cfg.Tenants.NoteFinished(j.Spec.Tenant, string(status))
}
