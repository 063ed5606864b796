package cluster

import (
	"io"

	"dedupsim/internal/farm"
	"dedupsim/internal/obs"
)

// Router-side observability. The router keeps its own two histograms —
// forward latency (one POST /jobs round trip to a worker) and fleet
// end-to-end job latency (Submit accept to terminal, as learned by the
// job's completion watcher) — and a per-fleet-job trace ring mirroring the
// farm's. The router trace covers what only the router can see: placement,
// forwarding, orphaning, and migration; the worker-side events are merged
// in at read time by the /jobs/{id}/trace handler, which fetches the
// owner's raw event list and renders both on one Chrome trace timeline.

// routerObs aggregates the router's latency histograms.
type routerObs struct {
	forward obs.Histogram // forwardSubmit round trip, successful placements
	e2e     obs.Histogram // fleet job accept -> terminal observed
}

// FleetLatencySummaries is the router's /stats latency block: fixed
// shape, two histograms, no per-label maps.
type FleetLatencySummaries struct {
	// Forward is the round-trip latency of successful job placements.
	Forward obs.Summary `json:"forward"`
	// EndToEnd is fleet job latency from router accept to the router
	// learning the terminal state (one long-poll answer after the node
	// finished, not a heartbeat period).
	EndToEnd obs.Summary `json:"end_to_end"`
}

func (o *routerObs) latencySummaries() *FleetLatencySummaries {
	fwd, e2e := o.forward.Snapshot(), o.e2e.Snapshot()
	return &FleetLatencySummaries{
		Forward:  fwd.Summarize(),
		EndToEnd: e2e.Summarize(),
	}
}

// WriteProm renders the router's Prometheus text-format exposition:
// placement and resilience counters, per-node health gauges, per-tenant
// fleet QoS series, and the forward/end-to-end latency histograms. Every
// counter and gauge comes from one Stats snapshot, the same one /stats
// and /statusz render.
func (r *Router) WriteProm(w io.Writer) error {
	st := r.Stats()
	p := obs.NewPromWriter(w)
	p.Counter("dedupfleet_jobs_submitted_total", "Jobs accepted by the router.", float64(st.JobsSubmitted))
	p.Counter("dedupfleet_jobs_forwarded_total", "Jobs placed on a worker node (spills included).", float64(st.Forwarded))
	p.Counter("dedupfleet_jobs_spilled_total", "Jobs placed off their key's primary ring owner.", float64(st.Spilled))
	p.Counter("dedupfleet_failovers_total", "Placements that skipped an unreachable candidate.", float64(st.Failovers))
	p.Counter("dedupfleet_migrations_total", "Jobs re-placed off dead nodes.", float64(st.Migrations))
	p.Counter("dedupfleet_node_deaths_total", "Nodes declared dead by the prober.", float64(st.NodeDeaths))
	p.Counter("dedupfleet_checkpoints_pulled_total", "Checkpoints replicated off worker nodes.", float64(st.CheckpointsPulled))
	p.Counter("dedupfleet_artifacts_replicated_total", "Compile artifacts replicated off worker nodes.", float64(st.ArtifactsReplicated))
	p.Counter("dedupfleet_artifacts_served_total", "Artifact fetches served back to nodes.", float64(st.ArtifactsServed))
	p.Counter("dedupfleet_artifact_evictions_total", "Artifacts evicted from the bounded in-memory cache.", float64(st.ArtifactEvictions))
	p.Counter("dedupfleet_routekey_evictions_total", "Route-key memo entries evicted from the bounded cache.", float64(st.RouteKeyEvictions))
	p.Counter("dedupfleet_artifact_disk_hits_total", "Artifact serves satisfied from the disk tier after a memory miss.", float64(st.ArtifactDiskHits))
	p.Counter("dedupfleet_jobs_adopted_total", "Fleet jobs adopted from peer routers.", float64(st.JobsAdopted))
	p.Counter("dedupfleet_peer_syncs_total", "Successful peer placement-delta pulls.", float64(st.PeerSyncs))
	p.Counter("dedupfleet_peer_sync_failures_total", "Failed peer placement-delta pulls.", float64(st.PeerSyncFailures))
	p.Gauge("dedupfleet_nodes", "Registered worker nodes (any state).", float64(len(st.Nodes)))
	p.Gauge("dedupfleet_jobs_live", "Fleet jobs not yet terminal.", float64(st.JobsLive))
	p.Gauge("dedupfleet_jobs_orphaned", "Fleet jobs awaiting re-placement.", float64(st.JobsOrphaned))
	for _, n := range st.Nodes {
		p.Gauge("dedupfleet_node_up", "1 if the node is alive per the last probe round.", boolGauge(n.State == NodeAlive), "node", n.ID)
		p.Gauge("dedupfleet_node_ready", "1 if the node accepts new placements.", boolGauge(n.Ready), "node", n.ID)
		p.Gauge("dedupfleet_node_load", "Router-tracked live jobs on the node.", float64(n.Load), "node", n.ID)
	}
	for _, pr := range st.Peers {
		id := pr.ID
		if id == "" {
			id = pr.Addr
		}
		p.Gauge("dedupfleet_peer_up", "1 if the peer router answered its last delta pull.", boolGauge(pr.Up), "peer", id)
	}
	if recovery := st.Recovery; recovery != nil {
		p.Gauge("dedupfleet_recovery_placements_replayed", "Job-lifecycle journal records folded by the last recovery.", float64(recovery.PlacementsReplayed))
		p.Gauge("dedupfleet_recovery_jobs_recovered", "Unfinished fleet jobs re-tracked by the last recovery.", float64(recovery.JobsRecovered))
		p.Gauge("dedupfleet_recovery_nodes_readopted", "Journaled nodes re-adopted live by the last recovery.", float64(recovery.NodesReadopted))
		p.Gauge("dedupfleet_recovery_artifacts_reloaded", "Replicated artifacts reloaded from disk by the last recovery.", float64(recovery.ArtifactsReloaded))
		p.Gauge("dedupfleet_recovery_millis", "Wall time of the last recovery, milliseconds.", recovery.RecoveryMillis)
	}
	// Per-tenant fleet series: router-side admission counters plus
	// node-summed execution stats, one label per tenant, emitted
	// per-metric so the exposition stays one HELP/TYPE block per name.
	tenants := st.Tenants
	tnames := farm.SortedKeys(tenants)
	for _, n := range tnames {
		p.Counter("dedupfleet_tenant_jobs_submitted_total", "Jobs accepted by the router per tenant.",
			float64(tenants[n].Submitted), "tenant", n)
	}
	for _, n := range tnames {
		p.Counter("dedupfleet_tenant_jobs_shed_total", "Submissions the router rejected per tenant (quota or fleet busy).",
			float64(tenants[n].Shed), "tenant", n)
	}
	for _, n := range tnames {
		p.Counter("dedupfleet_tenant_jobs_parked_total", "Attempts parked by priority preemption per tenant, fleet-wide.",
			float64(tenants[n].Parked), "tenant", n)
	}
	for _, n := range tnames {
		p.Counter("dedupfleet_tenant_sim_cycles_total", "Simulated cycles consumed per tenant, summed over nodes.",
			float64(tenants[n].Cycles), "tenant", n)
	}
	for _, n := range tnames {
		p.Gauge("dedupfleet_tenant_jobs_queued", "Jobs waiting per tenant, summed over nodes.",
			float64(tenants[n].Queued), "tenant", n)
	}
	for _, n := range tnames {
		p.Gauge("dedupfleet_tenant_jobs_running", "Jobs executing per tenant, summed over nodes.",
			float64(tenants[n].Running), "tenant", n)
	}
	p.Histogram("dedupfleet_forward_seconds", "Round-trip latency of successful job placements.", r.obs.forward.Snapshot())
	p.Histogram("dedupfleet_job_seconds", "Fleet job latency, router accept to observed terminal.", r.obs.e2e.Snapshot())
	return p.Flush()
}

// boolGauge renders a flag as a 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
