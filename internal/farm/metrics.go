package farm

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dedupsim/internal/tenant"
)

// Stats is the farm-level metrics snapshot served by the API.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsQueued    int   `json:"jobs_queued"`
	JobsRunning   int   `json:"jobs_running"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	JobsRetried   int64 `json:"jobs_retried"`

	// Robustness counters (see DESIGN.md, "Failure model"). JobsShed are
	// submissions rejected at admission (queue full); JobsPreempted are
	// attempts the watchdog canceled for lack of progress;
	// CheckpointsTaken and CyclesSavedByResume measure checkpoint-resume
	// (cycles a retry did NOT re-simulate thanks to a checkpoint).
	JobsShed            int64            `json:"jobs_shed"`
	JobsPreempted       int64            `json:"jobs_preempted"`
	JobsParked          int64            `json:"jobs_parked"`
	RetriesByCause      map[string]int64 `json:"retries_by_cause,omitempty"`
	CheckpointsTaken    int64            `json:"checkpoints_taken"`
	CyclesSavedByResume int64            `json:"cycles_saved_by_resume"`
	// FaultsInjected counts fired fault-injection points (chaos runs).
	FaultsInjected map[string]int64 `json:"faults_injected,omitempty"`
	// Draining reports graceful shutdown in progress (admission closed).
	Draining bool `json:"draining,omitempty"`

	// Recovery summarizes the startup journal replay (nil for cold or
	// non-durable starts); DurableWriteErrors counts failed journal or
	// checkpoint writes since then (durability degraded to best-effort).
	Recovery           *RecoveryStats `json:"recovery,omitempty"`
	DurableWriteErrors int64          `json:"durable_write_errors,omitempty"`

	// Designs is the design store in front of the compile cache: per-job
	// parse + elaborate + hash avoided (hits) and paid (misses).
	Designs DesignStoreStats `json:"design_store"`
	Cache   CacheStats       `json:"cache"`
	// CompileMsSpent is the wall time spent compiling (cache misses).
	CompileMsSpent float64 `json:"compile_ms_spent"`
	// ArtifactsFetched counts compile artifacts imported from peers (or
	// the fleet router) instead of compiled locally — fleet-level compile
	// dedup at work.
	ArtifactsFetched int64 `json:"artifacts_fetched_from_peers,omitempty"`

	// SimulatedCycles sums cycles across completed runs; AggregateSimHz
	// divides them by the simulation wall time summed across workers —
	// the farm-throughput number Figure 9 is about.
	SimulatedCycles int64   `json:"simulated_cycles"`
	SimWallMs       float64 `json:"sim_wall_ms"`
	AggregateSimHz  float64 `json:"aggregate_sim_hz"`

	// Latency holds p50/p95/p99 digests per job stage. The block has a
	// fixed shape — six histograms, no per-label maps — so /stats cannot
	// grow with traffic.
	Latency *LatencySummaries `json:"latency,omitempty"`

	// Tenants is the per-tenant QoS block: weights, priorities, quota
	// sheds, parks, consumed cycles, queue-wait digests, and live
	// queued/running gauges. Bounded by the registry's tenant cap.
	Tenants map[string]tenant.View `json:"tenants,omitempty"`
}

// Stats snapshots the farm's counters.
func (f *Farm) Stats() Stats {
	f.mu.Lock()
	st := Stats{
		UptimeSeconds:       time.Since(f.started).Seconds(),
		Workers:             f.cfg.Workers,
		JobsSubmitted:       f.nextID,
		JobsQueued:          queuedLocked(f.pending),
		JobsRunning:         f.running,
		JobsCompleted:       f.completed,
		JobsFailed:          f.failed,
		JobsCanceled:        f.canceled,
		JobsRetried:         f.retries,
		JobsShed:            f.shed,
		JobsPreempted:       f.preempts,
		JobsParked:          f.parks,
		CheckpointsTaken:    f.checkpoints,
		CyclesSavedByResume: f.cyclesSaved,
		Draining:            f.draining,
		CompileMsSpent:      float64(f.compileWall) / float64(time.Millisecond),
		ArtifactsFetched:    f.artifactsFetched,
		SimulatedCycles:     f.simCycles,
		SimWallMs:           float64(f.simWall) / float64(time.Millisecond),
	}
	if len(f.retriesByCause) > 0 {
		st.RetriesByCause = make(map[string]int64, len(f.retriesByCause))
		for k, v := range f.retriesByCause {
			st.RetriesByCause[k] = v
		}
	}
	// Per-tenant queued/running are derived gauges: one scan of the jobs
	// table at snapshot time instead of incremental counters threaded
	// through every lifecycle transition.
	queuedBy := map[string]int{}
	runningBy := map[string]int{}
	for _, j := range f.jobs {
		j.mu.Lock()
		s := j.status
		j.mu.Unlock()
		switch s {
		case StatusQueued:
			queuedBy[j.Spec.Tenant]++
		case StatusRunning:
			runningBy[j.Spec.Tenant]++
		}
	}
	f.mu.Unlock()
	st.Tenants = f.cfg.Tenants.Views()
	for name, v := range st.Tenants {
		v.Queued = queuedBy[name]
		v.Running = runningBy[name]
		st.Tenants[name] = v
	}
	if counts := f.cfg.Faults.Counts(); len(counts) > 0 {
		st.FaultsInjected = counts
	}
	if st.SimWallMs > 0 {
		st.AggregateSimHz = float64(st.SimulatedCycles) / (st.SimWallMs / 1000)
	}
	st.Designs = f.designs.stats()
	st.Cache = f.cache.Stats()
	st.Recovery = f.recovery
	st.DurableWriteErrors = f.durableErrs.Load()
	st.Latency = f.obs.latencySummaries()
	return st
}

// WriteStats renders the snapshot as a human-readable text dump (the
// /statusz page and cmd/dedupfarmd's shutdown report).
func (f *Farm) WriteStats(w io.Writer) {
	st := f.Stats()
	fmt.Fprintf(w, "farm up %.0fs, %d workers\n", st.UptimeSeconds, st.Workers)
	fmt.Fprintf(w, "jobs: %d submitted, %d queued, %d running, %d done, %d failed, %d canceled, %d retried\n",
		st.JobsSubmitted, st.JobsQueued, st.JobsRunning,
		st.JobsCompleted, st.JobsFailed, st.JobsCanceled, st.JobsRetried)
	fmt.Fprintf(w, "robustness: %d shed, %d preempted by watchdog, %d parked for priority, %d checkpoints taken, %d cycles saved by resume\n",
		st.JobsShed, st.JobsPreempted, st.JobsParked, st.CheckpointsTaken, st.CyclesSavedByResume)
	writeTenantText(w, st.Tenants)
	if len(st.RetriesByCause) > 0 {
		fmt.Fprintf(w, "  retries by cause:")
		for _, cause := range sortedKeys(st.RetriesByCause) {
			fmt.Fprintf(w, " %s=%d", cause, st.RetriesByCause[cause])
		}
		fmt.Fprintln(w)
	}
	if len(st.FaultsInjected) > 0 {
		fmt.Fprintf(w, "  faults injected:")
		for _, point := range sortedKeys(st.FaultsInjected) {
			fmt.Fprintf(w, " %s=%d", point, st.FaultsInjected[point])
		}
		fmt.Fprintln(w)
	}
	if st.Draining {
		fmt.Fprintln(w, "DRAINING: admission closed, letting in-flight jobs finish")
	}
	if r := st.Recovery; r != nil {
		fmt.Fprintf(w, "recovery: %d journal records replayed, %d jobs recovered, %d checkpoints loaded, %d corrupt checkpoints dropped, %d cache entries warmed from artifacts, %.0f ms\n",
			r.JournalRecordsReplayed, r.JobsRecovered, r.CheckpointsLoaded,
			r.CheckpointsCorruptDropped, r.WarmEntries, r.RecoveryMillis)
		if r.JournalBytesDropped > 0 {
			fmt.Fprintf(w, "  journal: %d torn/corrupt tail bytes truncated\n", r.JournalBytesDropped)
		}
	}
	if st.DurableWriteErrors > 0 {
		fmt.Fprintf(w, "DEGRADED: %d durable write errors (journal/checkpoints best-effort)\n", st.DurableWriteErrors)
	}
	fmt.Fprintf(w, "design store: %d designs resident, %d hits / %d misses (elaborations), %d evicted\n",
		st.Designs.Resident, st.Designs.Hits, st.Designs.Misses, st.Designs.Evictions)
	fmt.Fprintf(w, "compile cache: %d programs, %d hits (%d warm) / %d misses, %.0f ms compiling, %.0f ms saved\n",
		st.Cache.Entries, st.Cache.Hits, st.Cache.WarmHits, st.Cache.Misses,
		st.CompileMsSpent, st.Cache.CompileMsSaved)
	if st.ArtifactsFetched > 0 {
		fmt.Fprintf(w, "  %d compile artifacts fetched from peers\n", st.ArtifactsFetched)
	}
	fmt.Fprintf(w, "simulation: %d cycles in %.0f ms of engine time (%.0f aggregate sim Hz)\n",
		st.SimulatedCycles, st.SimWallMs, st.AggregateSimHz)
	writeLatencyText(w, st.Latency)
	for _, e := range f.cache.Snapshot() {
		status := fmt.Sprintf("%d parts, %d kernels, %d B code", e.Partitions, e.Kernels, e.CodeBytes)
		if e.InstrsBeforeFusion > 0 {
			status += fmt.Sprintf(", fused %d->%d instrs (%.0f%% dyn)",
				e.InstrsBeforeFusion, e.InstrsAfterFusion, 100*e.FusionFrac)
		}
		if e.PackedSignals > 0 {
			status += fmt.Sprintf(", %d packed 1-bit signals", e.PackedSignals)
		}
		if e.Failed {
			status = "FAILED: " + e.Error
		}
		fmt.Fprintf(w, "  program %s/%s: %d hits, compiled in %.0f ms (%s)\n",
			e.CircuitHash[:12], e.Variant, e.Hits, e.CompileMs, status)
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedTenants returns the tenant names of a view map in stable order.
func sortedTenants(m map[string]tenant.View) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeTenantText renders the per-tenant QoS block for /statusz.
func writeTenantText(w io.Writer, views map[string]tenant.View) {
	if len(views) == 0 {
		return
	}
	fmt.Fprintln(w, "tenants:")
	for _, name := range sortedTenants(views) {
		v := views[name]
		fmt.Fprintf(w, "  %-16s w=%d prio=%d queued=%d running=%d submitted=%d done=%d shed=%d parked=%d cycles=%d",
			name, v.Weight, v.Priority, v.Queued, v.Running,
			v.Submitted, v.Completed, v.Shed, v.Parked, v.Cycles)
		if v.QueueWait != nil {
			fmt.Fprintf(w, " wait-p99=%.2fms", v.QueueWait.P99Ms)
		}
		fmt.Fprintln(w)
	}
}

// queuedLocked counts still-queued entries in the pending slice (skipping
// canceled-while-queued jobs awaiting lazy removal). Caller holds f.mu.
func queuedLocked(pending []*Job) int {
	n := 0
	for _, j := range pending {
		j.mu.Lock()
		if j.status == StatusQueued {
			n++
		}
		j.mu.Unlock()
	}
	return n
}
