package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/durable"
	"dedupsim/internal/harness"
	"dedupsim/internal/obs"
	"dedupsim/internal/sim"
)

// Durability. With Config.DataDir set, the farm journals every job's
// admission and terminal state (admit, finish, cancel) to a write-ahead
// log, writes periodic checkpoints and one compile artifact per compile
// to disk, and on the next Open replays all of it: unfinished jobs are
// re-admitted (resuming from their newest valid checkpoint), orphaned
// checkpoints are garbage collected, and every persisted artifact is
// decoded into a warm cache entry before the first job arrives. A
// SIGKILL at any point loses at most the records the fsync policy
// allows (see durable.FsyncPolicy); it never corrupts recovery — torn
// journal tails, damaged checkpoints and damaged artifacts are detected
// by checksum and dropped, degrading to an older checkpoint or cycle 0,
// or to a compile on the design's first job.
//
// Without DataDir every hook below is a nil-pointer test and the farm
// behaves exactly as before: in-memory only.

// RecoveryStats summarizes one startup recovery (nil when the farm
// started cold or has no data directory).
type RecoveryStats struct {
	// JournalRecordsReplayed counts valid records decoded from the
	// journal; JournalBytesDropped is the torn/corrupt tail truncated.
	JournalRecordsReplayed int64 `json:"journal_records_replayed"`
	JournalBytesDropped    int64 `json:"journal_bytes_dropped,omitempty"`
	// JobsRecovered is how many unfinished jobs were re-admitted.
	JobsRecovered int64 `json:"jobs_recovered"`
	// CheckpointsLoaded counts re-admitted jobs that will resume from a
	// persisted checkpoint; CheckpointsCorruptDropped counts checkpoint
	// files rejected by checksum (the job falls back to an older
	// checkpoint or cycle 0).
	CheckpointsLoaded         int64 `json:"checkpoints_loaded"`
	CheckpointsCorruptDropped int64 `json:"checkpoints_corrupt_dropped"`
	// WarmEntries counts compile-cache entries installed by decoding a
	// persisted artifact before the farm started taking jobs.
	WarmEntries int64 `json:"cache_entries_warmed"`
	// RecoveryMillis is the wall time from opening the store to workers
	// starting (replay + re-admit + GC + artifact decode + compaction).
	RecoveryMillis float64 `json:"recovery_millis"`
}

// RecoveryStats returns the startup recovery summary, or nil for a cold
// or non-durable start.
func (f *Farm) RecoveryStats() *RecoveryStats { return f.recovery }

// Open starts a farm, recovering persisted state first when cfg.DataDir
// is set. It fails fast — before accepting any job — when the data
// directory is unwritable or holds a journal from an incompatible
// format version; a farm that cannot persist what it promised must not
// start. With no DataDir it cannot fail and is equivalent to New.
func Open(cfg Config) (*Farm, error) {
	cfg = cfg.withDefaults()
	ctx, stop := newFarmContext()
	f := &Farm{
		cfg:            cfg,
		cache:          NewCompileCache(),
		designs:        newDesignStore(),
		jobs:           map[string]*Job{},
		retriesByCause: map[string]int64{},
		wake:           make(chan struct{}, cfg.QueueDepth),
		ctx:            ctx,
		stop:           stop,
		started:        time.Now(),
	}
	if cfg.DataDir != "" {
		store, err := durable.OpenStore(durable.Options{
			Dir:           cfg.DataDir,
			Fsync:         durable.FsyncPolicy(cfg.Fsync),
			FsyncInterval: cfg.FsyncInterval,
		})
		if err != nil {
			stop()
			return nil, fmt.Errorf("farm: %w", err)
		}
		f.store = store
		if err := f.recoverFromStore(); err != nil {
			store.Close()
			stop()
			return nil, fmt.Errorf("farm: recovery: %w", err)
		}
	}
	f.startWorkers()
	return f, nil
}

// replayedJob is one job's journal history, folded during replay.
type replayedJob struct {
	spec     json.RawMessage
	terminal bool
}

// recoverFromStore replays the journal and rebuilds farm state before
// any worker runs: unfinished jobs re-enter the queue (newest valid
// checkpoint attached), orphaned checkpoints are removed, persisted
// artifacts warm the compile cache, and the journal is compacted down
// to the live jobs.
func (f *Farm) recoverFromStore() error {
	start := time.Now()
	rec := &RecoveryStats{}

	table := map[string]*replayedJob{}
	var order []string
	var maxID int64
	info, err := f.store.Replay(func(r durable.Record) {
		switch r.Type {
		case durable.RecAdmit:
			if r.Job == "" || len(r.Spec) == 0 {
				return
			}
			if _, ok := table[r.Job]; !ok {
				table[r.Job] = &replayedJob{spec: r.Spec}
				order = append(order, r.Job)
			}
			if n, perr := strconv.ParseInt(strings.TrimPrefix(r.Job, "job-"), 10, 64); perr == nil && n > maxID {
				maxID = n
			}
		case durable.RecFinish, durable.RecCancel:
			if rj, ok := table[r.Job]; ok {
				rj.terminal = true
			}
		}
		// Older journals also hold "start" and "ckpt" records; nothing in
		// them changes what recovery does, so the fold skips them.
	})
	if err != nil {
		return err
	}
	rec.JournalRecordsReplayed = info.Records
	rec.JournalBytesDropped = info.DroppedBytes
	f.nextID = maxID

	// Re-admit unfinished jobs in original admission order. A spec that
	// no longer unmarshals or validates (format drift across versions) is
	// dropped rather than wedging recovery; its checkpoint is then GC'd
	// as an orphan below.
	for _, id := range order {
		rj := table[id]
		if rj.terminal {
			continue
		}
		var spec JobSpec
		if uerr := json.Unmarshal(rj.spec, &spec); uerr != nil {
			continue
		}
		if nerr := spec.normalize(f.cfg); nerr != nil {
			continue
		}
		if spec.TraceID == "" {
			spec.TraceID = obs.NewTraceID()
		}
		now := time.Now()
		j := &Job{
			ID:         id,
			Spec:       spec,
			farm:       f,
			batch:      jobBatchKey(spec),
			status:     StatusQueued,
			created:    now,
			enqueuedAt: now,
			done:       make(chan struct{}),
		}
		// Re-admitted jobs rejoin their tenant's runnable set (normalize
		// already defaulted pre-tenancy records to the default tenant, so
		// replaying an old journal needs no format flag-day).
		f.cfg.Tenants.Activate(spec.Tenant)
		// The pre-crash trace ring died with the process; the recovered
		// trace keeps the job's fleet-wide ID and starts its story at the
		// re-admission.
		j.trace = obs.NewTrace(spec.TraceID, id)
		j.trace.Instant("recovered")
		if !spec.VCD {
			for _, data := range f.store.LoadCheckpoint(id) {
				snap, derr := sim.DecodeSnapshot(data)
				if derr != nil {
					rec.CheckpointsCorruptDropped++
					continue
				}
				j.checkpoint = snap
				rec.CheckpointsLoaded++
				break
			}
			// A migrated-in job carries its checkpoint inline in the spec;
			// use it when the store has nothing newer (the store checkpoint,
			// when present, is at least as fresh — it was taken here).
			if j.checkpoint == nil && len(spec.Checkpoint) > 0 {
				if snap, derr := sim.DecodeSnapshot(spec.Checkpoint); derr == nil {
					j.checkpoint = snap
					rec.CheckpointsLoaded++
				}
			}
		}
		f.jobs[id] = j
		f.order = append(f.order, id)
		f.pending = append(f.pending, j)
		select {
		case f.wake <- struct{}{}:
		default:
		}
		rec.JobsRecovered++
	}

	// GC checkpoints whose job finished (or whose admit record was lost
	// with the torn tail — those jobs are gone; a stale checkpoint must
	// not outlive them and be mistaken for live state later).
	for _, id := range f.store.Checkpoints() {
		if _, live := f.jobs[id]; !live {
			f.store.RemoveCheckpoint(id)
		}
	}

	rec.WarmEntries = f.warmCompileCache()

	// Compact the journal to exactly the live jobs' admits so it doesn't
	// grow with the full history of every job that ever ran.
	var live []durable.Record
	for _, id := range f.order {
		b, merr := json.Marshal(f.jobs[id].Spec)
		if merr != nil {
			continue
		}
		live = append(live, durable.Record{Type: durable.RecAdmit, Job: id, Spec: b})
	}
	if cerr := f.store.Compact(live); cerr != nil {
		return cerr
	}

	rec.RecoveryMillis = float64(time.Since(start)) / float64(time.Millisecond)
	f.recovery = rec
	return nil
}

// warmCompileCache installs every persisted artifact as a warm cache
// entry before the farm takes jobs, so a restarted farm serves its
// design zoo without recompiling. The name carries the key
// (ArtifactKey: a fixed-width hash, then the variant); the frame
// checksum covers the Program bytes, and the payload's variant must
// match the name's. An artifact that fails any check is removed and its
// design compiles on its first job, as on a cold farm.
func (f *Farm) warmCompileCache() (warmed int64) {
	for _, name := range f.store.Artifacts() {
		hash, variant, ok := splitArtifactKey(name)
		h, herr := circuit.ParseHash(hash)
		if !ok || herr != nil {
			f.store.RemoveArtifact(name)
			continue
		}
		key := CacheKey{Hash: h, Variant: harness.Variant(variant)}
		data, ok := f.store.LoadArtifact(name)
		if !ok {
			continue
		}
		cv, compileTime, err := DecodeArtifact(data)
		if err != nil || cv.Variant != key.Variant {
			f.store.RemoveArtifact(name)
			continue
		}
		if f.cache.InstallWarm(key, cv, compileTime) {
			warmed++
		}
	}
	return warmed
}

// persistArtifact writes one encoded compile artifact to the disk tier
// (no-op without a store). Best-effort: a write failure is counted but
// never fails the job, and losing the artifact only costs a compile on
// the design's first job after a restart.
func (f *Farm) persistArtifact(key CacheKey, data []byte) {
	if f.store == nil {
		return
	}
	if err := f.store.SaveArtifact(ArtifactKey(key.Hash.String(), string(key.Variant)), data); err != nil {
		f.durableErrs.Add(1)
	}
}

// journal appends one record (no-op without a store). Disk errors are
// counted, not acted on: a sick disk degrades durability, it does not
// take down running simulations. The error is returned so the finish
// path can tell a frozen store (durable.ErrFrozen) from a written record.
func (f *Farm) journal(r durable.Record) error {
	if f.store == nil {
		return nil
	}
	err := f.store.Append(r)
	if err != nil && !errors.Is(err, durable.ErrFrozen) {
		f.durableErrs.Add(1)
	}
	return err
}

// marshalAdmit encodes a spec for its admit record (nil without a store,
// or when the spec does not marshal — counted as a durable write error).
// The spec carries the whole FIRRTL text, so Submit calls this before
// taking f.mu.
func (f *Farm) marshalAdmit(spec JobSpec) json.RawMessage {
	if f.store == nil {
		return nil
	}
	b, err := json.Marshal(spec)
	if err != nil {
		f.durableErrs.Add(1)
		return nil
	}
	return b
}

// journalAdmitLocked appends a job's admit record (spec from
// marshalAdmit). Called with f.mu held (Submit), which keeps the
// journal's admit order identical to ID order — recovery re-admits in
// the order the records appear.
func (f *Farm) journalAdmitLocked(j *Job, spec json.RawMessage) {
	if spec == nil {
		return
	}
	f.journal(durable.Record{Type: durable.RecAdmit, Job: j.ID, Spec: spec})
}

// journalFinish journals a terminal transition, before it is published,
// and deletes the job's persisted checkpoint. It reports false when the
// store is frozen: Close or Kill has begun, the record cannot be made
// durable, and the job must re-admit on restart instead of finishing
// (at-least-once semantics).
func (f *Farm) journalFinish(id string, status Status, err error) bool {
	if f.store == nil {
		return true
	}
	t := durable.RecFinish
	if status == StatusCanceled {
		t = durable.RecCancel
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	if errors.Is(f.journal(durable.Record{Type: t, Job: id, Status: string(status), Error: errMsg}), durable.ErrFrozen) {
		return false
	}
	f.store.RemoveCheckpoint(id)
	return true
}

// recordCheckpoint installs a job's new resume point and, with a store,
// persists it (atomic rename, previous checkpoint rotated to .prev).
// Recovery finds it by job ID, so the journal carries no record of it.
func (f *Farm) recordCheckpoint(j *Job, snap *sim.Snapshot) {
	j.setCheckpoint(snap)
	f.mu.Lock()
	f.checkpoints++
	f.mu.Unlock()
	j.trace.Instant("checkpoint", "cycle", traceAttrCycle(snap.Cycles))
	if f.store == nil {
		return
	}
	wstart := time.Now()
	err := f.store.SaveCheckpoint(j.ID, snap.Encode())
	f.obs.ckptWrite.Observe(time.Since(wstart))
	if err != nil {
		f.durableErrs.Add(1)
	}
}

// Kill shuts the farm down as a crash would: buffered-but-unsynced
// journal records are dropped (per the fsync policy's guarantees),
// nothing about the shutdown is persisted, and no graceful cleanup runs
// against the store. Chaos tests and bench's farm.recovery_ms probe use
// it to emulate SIGKILL in-process; a real SIGKILL behaves the same
// minus the in-memory goroutine teardown.
func (f *Farm) Kill() {
	if f.store != nil {
		f.store.Abandon()
	}
	f.Close()
}
