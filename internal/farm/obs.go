package farm

import (
	"fmt"
	"io"
	"strconv"

	"dedupsim/internal/obs"
)

// Observability. The farm records six latency histograms — where a
// job's wall time goes — and a bounded per-job lifecycle trace. All
// recording is off the hot cycle loop: histograms observe once per
// stage, traces once per lifecycle event.

// farmObs holds the farm's stage-latency histograms.
type farmObs struct {
	// queueWait is Submit → first attempt start, for every job;
	// laneWait is the same interval for jobs that ran as batch lanes
	// (their wait includes the batch-formation window).
	queueWait obs.Histogram
	laneWait  obs.Histogram
	// compile is the wall time of cache-miss compiles (hits cost ~0 and
	// would drown the signal).
	compile obs.Histogram
	// simRun is one attempt's (or batch lane's) simulation wall time.
	simRun obs.Histogram
	// ckptWrite is encode+persist time per durable checkpoint write.
	ckptWrite obs.Histogram
	// e2e is Submit → terminal for completed jobs.
	e2e obs.Histogram
}

// LatencySummaries is the fixed-shape quantile block in Stats: one
// Summary per stage, no per-label maps, so /stats stays
// allocation-bounded no matter how many jobs have run.
type LatencySummaries struct {
	QueueWait       obs.Summary `json:"queue_wait"`
	LaneWait        obs.Summary `json:"lane_wait"`
	Compile         obs.Summary `json:"compile"`
	SimRun          obs.Summary `json:"sim_run"`
	CheckpointWrite obs.Summary `json:"checkpoint_write"`
	EndToEnd        obs.Summary `json:"end_to_end"`
}

// latencySummaries digests the histograms.
func (o *farmObs) latencySummaries() *LatencySummaries {
	sum := func(h *obs.Histogram) obs.Summary {
		s := h.Snapshot()
		return s.Summarize()
	}
	return &LatencySummaries{
		QueueWait:       sum(&o.queueWait),
		LaneWait:        sum(&o.laneWait),
		Compile:         sum(&o.compile),
		SimRun:          sum(&o.simRun),
		CheckpointWrite: sum(&o.ckptWrite),
		EndToEnd:        sum(&o.e2e),
	}
}

// maxRetryCauses bounds the retries-by-cause map: causes come from a
// small fixed vocabulary ("panic", "preempted", "fault", ...), but the
// label reaches /stats and /metrics, so an unexpected proliferation
// must degrade to "other" instead of growing a map without bound.
const maxRetryCauses = 16

// TraceView returns the job's lifecycle trace snapshot.
func (j *Job) TraceView() obs.TraceView { return j.trace.View() }

// WriteProm renders the farm's metrics as Prometheus text format
// (the GET /metrics page). Metric names follow the dedupfarm_ prefix;
// durations are histograms in seconds.
func (f *Farm) WriteProm(w io.Writer) error {
	st := f.Stats()
	p := obs.NewPromWriter(w)

	p.Counter("dedupfarm_jobs_submitted_total", "Jobs admitted.", float64(st.JobsSubmitted))
	p.Counter("dedupfarm_jobs_completed_total", "Jobs finished successfully.", float64(st.JobsCompleted))
	p.Counter("dedupfarm_jobs_failed_total", "Jobs that failed terminally.", float64(st.JobsFailed))
	p.Counter("dedupfarm_jobs_canceled_total", "Jobs canceled.", float64(st.JobsCanceled))
	p.Counter("dedupfarm_jobs_shed_total", "Submissions rejected at admission (queue full).", float64(st.JobsShed))
	p.Counter("dedupfarm_jobs_preempted_total", "Attempts preempted by the progress watchdog.", float64(st.JobsPreempted))
	p.Counter("dedupfarm_jobs_parked_total", "Attempts parked by priority preemption (checkpointed and requeued).", float64(st.JobsParked))
	p.Counter("dedupfarm_retries_total", "Retried attempts by transient cause.", float64(st.JobsRetried))
	for _, cause := range SortedKeys(st.RetriesByCause) {
		p.Counter("dedupfarm_retries_by_cause_total", "Retried attempts split by cause.",
			float64(st.RetriesByCause[cause]), "cause", cause)
	}
	for _, point := range SortedKeys(st.FaultsInjected) {
		p.Counter("dedupfarm_faults_injected_total", "Fired fault-injection points.",
			float64(st.FaultsInjected[point]), "point", point)
	}

	p.Gauge("dedupfarm_workers", "Worker-pool size.", float64(st.Workers))
	p.Gauge("dedupfarm_jobs_queued", "Jobs waiting in the pending queue.", float64(st.JobsQueued))
	p.Gauge("dedupfarm_jobs_running", "Jobs currently executing.", float64(st.JobsRunning))
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	p.Gauge("dedupfarm_draining", "1 while admission is closed for graceful shutdown.", draining)
	p.Gauge("dedupfarm_uptime_seconds", "Seconds since the farm started.", st.UptimeSeconds)

	p.Counter("dedupfarm_checkpoints_taken_total", "Periodic simulation snapshots taken.", float64(st.CheckpointsTaken))
	p.Counter("dedupfarm_cycles_saved_by_resume_total", "Cycles retries skipped by resuming from checkpoints.", float64(st.CyclesSavedByResume))
	p.Counter("dedupfarm_durable_write_errors_total", "Failed journal or checkpoint writes.", float64(st.DurableWriteErrors))

	p.Gauge("dedupfarm_design_store_resident", "Elaborated designs resident in the design store.", float64(st.Designs.Resident))
	p.Counter("dedupfarm_design_store_hits_total", "Jobs served a resident design (no parse, elaborate or hash).", float64(st.Designs.Hits))
	p.Counter("dedupfarm_design_store_misses_total", "Designs parsed, elaborated and hashed.", float64(st.Designs.Misses))
	p.Counter("dedupfarm_design_store_evictions_total", "Designs evicted from the bounded design store.", float64(st.Designs.Evictions))

	p.Gauge("dedupfarm_cache_entries", "Compiled programs resident in the cache.", float64(st.Cache.Entries))
	p.Counter("dedupfarm_cache_hits_total", "Compile-cache hits.", float64(st.Cache.Hits))
	p.Counter("dedupfarm_cache_misses_total", "Compile-cache misses.", float64(st.Cache.Misses))
	p.Counter("dedupfarm_cache_warm_hits_total", "Hits served by entries warmed from the persistent tier.", float64(st.Cache.WarmHits))
	p.Counter("dedupfarm_compile_seconds_total", "Wall time spent compiling (cache misses).", st.CompileMsSpent/1e3)
	p.Counter("dedupfarm_compile_seconds_saved_total", "Compile wall time hits avoided.", st.Cache.CompileMsSaved/1e3)
	p.Counter("dedupfarm_artifacts_fetched_total", "Compile artifacts imported from peers instead of compiled.", float64(st.ArtifactsFetched))

	p.Counter("dedupfarm_sim_cycles_total", "Simulated cycles across all runs.", float64(st.SimulatedCycles))
	p.Counter("dedupfarm_sim_wall_seconds_total", "Engine wall time summed across workers.", st.SimWallMs/1e3)

	// Per-tenant QoS series, one label per tenant, bounded by the
	// registry's tenant cap. Each metric's series are emitted together so
	// the exposition stays one HELP/TYPE block per name.
	tnames := SortedKeys(st.Tenants)
	for _, n := range tnames {
		p.Counter("dedupfarm_tenant_jobs_submitted_total", "Jobs admitted per tenant.",
			float64(st.Tenants[n].Submitted), "tenant", n)
	}
	for _, n := range tnames {
		p.Counter("dedupfarm_tenant_jobs_shed_total", "Submissions rejected per tenant (quota or queue full).",
			float64(st.Tenants[n].Shed), "tenant", n)
	}
	for _, n := range tnames {
		p.Counter("dedupfarm_tenant_jobs_parked_total", "Attempts parked by priority preemption per victim tenant.",
			float64(st.Tenants[n].Parked), "tenant", n)
	}
	for _, n := range tnames {
		p.Counter("dedupfarm_tenant_sim_cycles_total", "Simulated cycles consumed per tenant.",
			float64(st.Tenants[n].Cycles), "tenant", n)
	}
	for _, n := range tnames {
		p.Counter("dedupfarm_tenant_compiles_total", "Cache-miss compiles triggered per tenant.",
			float64(st.Tenants[n].Compiles), "tenant", n)
	}
	for _, n := range tnames {
		p.Gauge("dedupfarm_tenant_queue_depth", "Jobs waiting in the pending queue per tenant.",
			float64(st.Tenants[n].Queued), "tenant", n)
	}
	for _, n := range tnames {
		p.Gauge("dedupfarm_tenant_jobs_running", "Jobs currently executing per tenant.",
			float64(st.Tenants[n].Running), "tenant", n)
	}
	for _, n := range tnames {
		if qw := st.Tenants[n].QueueWait; qw != nil {
			p.Gauge("dedupfarm_tenant_queue_wait_p99_seconds", "p99 submit-to-start wait per tenant.",
				qw.P99Ms/1e3, "tenant", n)
		}
	}

	p.Histogram("dedupfarm_queue_wait_seconds", "Submit to first attempt start.", f.obs.queueWait.Snapshot())
	p.Histogram("dedupfarm_lane_wait_seconds", "Submit to batch start for coalesced lanes.", f.obs.laneWait.Snapshot())
	p.Histogram("dedupfarm_compile_seconds", "Cache-miss compile wall time.", f.obs.compile.Snapshot())
	p.Histogram("dedupfarm_sim_run_seconds", "Per-attempt simulation wall time.", f.obs.simRun.Snapshot())
	p.Histogram("dedupfarm_checkpoint_write_seconds", "Durable checkpoint encode+write time.", f.obs.ckptWrite.Snapshot())
	p.Histogram("dedupfarm_job_seconds", "End-to-end latency of completed jobs.", f.obs.e2e.Snapshot())
	return p.Flush()
}

// writeLatencyText renders the quantile block for /statusz.
func writeLatencyText(w io.Writer, l *LatencySummaries) {
	row := func(name string, s obs.Summary) {
		if s.Count == 0 {
			return
		}
		fmt.Fprintf(w, "  %-17s n=%-6d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			name, s.Count, s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
	}
	fmt.Fprintln(w, "latency quantiles (conservative upper bounds):")
	row("queue-wait", l.QueueWait)
	row("lane-wait", l.LaneWait)
	row("compile", l.Compile)
	row("sim-run", l.SimRun)
	row("checkpoint-write", l.CheckpointWrite)
	row("end-to-end", l.EndToEnd)
}

// traceAttrCycle formats a cycle attribute value.
func traceAttrCycle(c int64) string { return strconv.FormatInt(c, 10) }
