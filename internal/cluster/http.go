package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"dedupsim/internal/farm"
	"dedupsim/internal/obs"
	"dedupsim/internal/tenant"
)

// FleetStats is the router's aggregate metrics snapshot: router-side
// counters plus sums over every node's last polled farm.Stats (dead
// nodes' last-known stats included — work they did still happened).
type FleetStats struct {
	Nodes []NodeView `json:"nodes"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsLive      int   `json:"jobs_live"`
	JobsOrphaned  int   `json:"jobs_orphaned"`

	Forwarded           int64 `json:"forwarded"`
	Spilled             int64 `json:"spilled"`
	Failovers           int64 `json:"failovers,omitempty"`
	Migrations          int64 `json:"migrations"`
	NodeDeaths          int64 `json:"node_deaths"`
	CheckpointsPulled   int64 `json:"checkpoints_pulled"`
	ArtifactsReplicated int64 `json:"artifacts_replicated"`
	ArtifactsServed     int64 `json:"artifacts_served"`

	// Bounded-cache pressure: evictions from the in-memory artifact and
	// route-key LRUs, and artifact serves satisfied from the disk tier
	// after a memory miss.
	ArtifactEvictions int64 `json:"artifact_evictions,omitempty"`
	RouteKeyEvictions int64 `json:"routekey_evictions,omitempty"`
	ArtifactDiskHits  int64 `json:"artifact_disk_hits,omitempty"`

	// HA: peer routers, jobs adopted from them, and sync outcomes.
	Peers            []PeerView `json:"peers,omitempty"`
	JobsAdopted      int64      `json:"jobs_adopted,omitempty"`
	PeerSyncs        int64      `json:"peer_syncs,omitempty"`
	PeerSyncFailures int64      `json:"peer_sync_failures,omitempty"`

	// Recovery reports the last OpenRouter replay (nil for a fresh or
	// in-memory router).
	Recovery *RouterRecoveryStats `json:"recovery,omitempty"`

	// Fleet-wide dedup effectiveness, summed across nodes: Compiles is
	// the total cache misses (the "exactly one compile fleet-wide"
	// number), WarmHits counts hits on warm-installed entries (disk or
	// peer artifacts), ArtifactsFetched counts peer imports, and
	// CyclesSavedByResume sums checkpoint-resume savings.
	Compiles            int64 `json:"compiles"`
	WarmHits            int64 `json:"warm_hits"`
	ArtifactsFetched    int64 `json:"artifacts_fetched"`
	CyclesSavedByResume int64 `json:"cycles_saved_by_resume"`

	// Tenants is the fleet-wide per-tenant QoS block: router-side
	// admission counters (submitted, shed) merged with execution stats
	// summed over every node's last polled farm stats (cycles, parks,
	// compiles, live queued/running).
	Tenants map[string]tenant.View `json:"tenants,omitempty"`

	// NodeStats maps node ID to its last polled farm stats.
	NodeStats map[string]*farm.Stats `json:"node_stats,omitempty"`

	// Latency holds the router's own p50/p95/p99 digests. Fixed shape —
	// two histograms, no per-label maps — so /stats cannot grow with
	// traffic.
	Latency *FleetLatencySummaries `json:"latency,omitempty"`
}

// Stats aggregates the fleet snapshot.
func (r *Router) Stats() FleetStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statsLocked()
}

// statsLocked is Stats with r.mu already held. It decodes nothing: node
// stats were decoded when the heartbeat fetched them.
func (r *Router) statsLocked() FleetStats {
	st := FleetStats{
		Nodes:               r.registry.Views(),
		JobsSubmitted:       r.nextID,
		Forwarded:           r.forwarded,
		Spilled:             r.spilled,
		Failovers:           r.failovers,
		Migrations:          r.migrations,
		NodeDeaths:          r.deaths,
		CheckpointsPulled:   r.ckptsPulled,
		ArtifactsReplicated: r.artsPulled,
		ArtifactsServed:     r.artsServed,
		ArtifactEvictions:   r.artifacts.Evictions(),
		RouteKeyEvictions:   r.routeKeys.Evictions(),
		ArtifactDiskHits:    r.artsDiskHits,
		JobsAdopted:         r.jobsAdopted,
		PeerSyncs:           r.peerSyncs,
		PeerSyncFailures:    r.peerSyncFails,
		Recovery:            r.recovery,
		NodeStats:           map[string]*farm.Stats{},
		Tenants:             r.cfg.Tenants.Views(),
	}
	for _, p := range r.peers {
		st.Peers = append(st.Peers, PeerView{ID: p.id, Addr: p.addr, Up: p.up, LastSeq: p.lastSeq})
	}
	for _, fj := range r.jobs {
		if !fj.terminal {
			st.JobsLive++
		}
		if fj.orphaned {
			st.JobsOrphaned++
		}
	}
	for id, m := range r.registry.members {
		fs := m.stats
		if fs == nil {
			continue
		}
		st.NodeStats[id] = fs
		st.Compiles += fs.Cache.Misses
		st.WarmHits += fs.Cache.WarmHits
		st.ArtifactsFetched += fs.ArtifactsFetched
		st.CyclesSavedByResume += fs.CyclesSavedByResume
		// Merge node-side execution stats into the fleet tenant block.
		// Router-side Submitted/Shed stay authoritative for admission
		// (summing node submissions would double-count forwarded jobs);
		// everything that happens on workers is summed across nodes.
		for name, nv := range fs.Tenants {
			v, known := st.Tenants[name]
			if !known {
				v.Weight, v.Priority = nv.Weight, nv.Priority
			}
			v.Completed += nv.Completed
			v.Failed += nv.Failed
			v.Canceled += nv.Canceled
			v.Parked += nv.Parked
			v.Compiles += nv.Compiles
			v.Cycles += nv.Cycles
			v.Queued += nv.Queued
			v.Running += nv.Running
			st.Tenants[name] = v
		}
	}
	st.Latency = r.obs.latencySummaries()
	return st
}

// WriteStatus renders the fleet-wide /statusz text: membership,
// placement counters, dedup totals, and the migration log.
func (r *Router) WriteStatus(w io.Writer) {
	r.mu.Lock()
	st := r.statsLocked()
	logs, logTotal := r.migrationLogs.snapshot()
	r.mu.Unlock()

	fmt.Fprintf(w, "fleet: %d nodes, %d jobs submitted, %d live, %d orphaned\n",
		len(st.Nodes), st.JobsSubmitted, st.JobsLive, st.JobsOrphaned)
	for _, n := range st.Nodes {
		extra := ""
		if n.State == NodeAlive && !n.Ready {
			extra = " (draining)"
		}
		fmt.Fprintf(w, "  node %s at %s: %s%s, load %d\n", n.ID, n.Addr, n.State, extra, n.Load)
	}
	fmt.Fprintf(w, "placement: %d forwarded (%d spilled past an overloaded primary, %d failovers)\n",
		st.Forwarded, st.Spilled, st.Failovers)
	fmt.Fprintf(w, "resilience: %d node deaths, %d migrations, %d checkpoints pulled\n",
		st.NodeDeaths, st.Migrations, st.CheckpointsPulled)
	fmt.Fprintf(w, "artifacts: %d replicated off nodes, %d served to nodes (%d from disk, %d memory evictions)\n",
		st.ArtifactsReplicated, st.ArtifactsServed, st.ArtifactDiskHits, st.ArtifactEvictions)
	if rec := st.Recovery; rec != nil {
		fmt.Fprintf(w, "recovery: %d placements replayed, %d jobs recovered, %d nodes re-adopted, %d artifacts reloaded (%.1fms)\n",
			rec.PlacementsReplayed, rec.JobsRecovered, rec.NodesReadopted, rec.ArtifactsReloaded, rec.RecoveryMillis)
	}
	for _, p := range st.Peers {
		state := "down"
		if p.Up {
			state = "up"
		}
		fmt.Fprintf(w, "peer: router %s at %s: %s, synced through seq %d\n", p.ID, p.Addr, state, p.LastSeq)
	}
	if st.JobsAdopted > 0 || st.PeerSyncs > 0 {
		fmt.Fprintf(w, "ha: %d jobs adopted from peers, %d syncs (%d failed)\n",
			st.JobsAdopted, st.PeerSyncs, st.PeerSyncFailures)
	}
	fmt.Fprintf(w, "fleet dedup: %d compiles total, %d warm hits, %d artifacts fetched by nodes, %d cycles saved by resume\n",
		st.Compiles, st.WarmHits, st.ArtifactsFetched, st.CyclesSavedByResume)
	if len(st.Tenants) > 0 {
		fmt.Fprintln(w, "tenants (fleet-wide):")
		for _, name := range farm.SortedKeys(st.Tenants) {
			v := st.Tenants[name]
			fmt.Fprintf(w, "  %-16s w=%d prio=%d submitted=%d shed=%d queued=%d running=%d done=%d parked=%d cycles=%d\n",
				name, v.Weight, v.Priority, v.Submitted, v.Shed,
				v.Queued, v.Running, v.Completed, v.Parked, v.Cycles)
		}
	}
	l := st.Latency
	fmt.Fprintf(w, "latency: forward p50/p95/p99 %.1f/%.1f/%.1f ms (%d placed), e2e p50/p95/p99 %.0f/%.0f/%.0f ms (%d finished)\n",
		l.Forward.P50Ms, l.Forward.P95Ms, l.Forward.P99Ms, l.Forward.Count,
		l.EndToEnd.P50Ms, l.EndToEnd.P95Ms, l.EndToEnd.P99Ms, l.EndToEnd.Count)
	if logTotal > 0 {
		fmt.Fprintf(w, "recent_migrations (last %d of %d):\n", len(logs), logTotal)
	}
	for _, line := range logs {
		fmt.Fprintf(w, "  event: %s\n", line)
	}
}

// registration is the POST /nodes/register body.
type registration struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Handler returns the router's HTTP API:
//
//	POST /nodes/register    {"id": ..., "addr": ...} join the fleet
//	GET  /nodes             membership table
//	POST /jobs              submit a JobSpec; routed to a worker node
//	GET  /jobs              fleet job list
//	GET  /jobs/{id}         one fleet job (?wait=<duration> long-polls
//	                        like a node's: answers once the job is
//	                        terminal or the wait, capped at farm.MaxWait,
//	                        elapses)
//	GET  /jobs/{id}/vcd     proxied waveform fetch from the owner node
//	GET  /jobs/{id}/trace   merged lifecycle trace: router placement events
//	                        plus the owner node's job events on one Chrome
//	                        trace timeline (?format=events for the router's
//	                        raw event list)
//	GET  /trace             every fleet job's router-side timeline
//	GET  /artifacts/{key}   fetch-by-hash from the replicated store
//	GET  /fleet/placements  placement delta for peer routers (?after=seq)
//	GET  /stats             fleet metrics (JSON, incl. latency quantiles)
//	GET  /statusz           fleet metrics (text) incl. recovery stats and
//	                        the bounded recent-migrations log
//	GET  /metrics           Prometheus text-format exposition
//	GET  /livez, /readyz    router health
//
// Both POST bodies are bounded by farm.DecodeBody: over
// durable.MaxRecordLen bytes answers 413.
//
// POST /jobs accepts an X-Trace-Id header (a trace ID already in the
// spec wins) and echoes the job's trace ID back in the same header.
//
// Worker rejections relay unchanged: a fleet saturated to the point
// that every candidate node sheds returns the worker's own 429 with its
// Retry-After header intact, so client backoff logic works identically
// against a node or the fleet.
func Handler(r *Router) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /nodes/register", func(w http.ResponseWriter, req *http.Request) {
		var reg registration
		if code, err := farm.DecodeBody(w, req, &reg); err != nil {
			farm.HTTPError(w, code, fmt.Errorf("bad registration: %w", err))
			return
		}
		if err := r.Register(reg.ID, reg.Addr); err != nil {
			farm.HTTPError(w, http.StatusConflict, err)
			return
		}
		farm.WriteJSON(w, http.StatusOK, map[string]string{"status": "registered", "id": reg.ID})
	})

	mux.HandleFunc("GET /nodes", func(w http.ResponseWriter, req *http.Request) {
		farm.WriteJSON(w, http.StatusOK, r.Nodes())
	})

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, req *http.Request) {
		var spec farm.JobSpec
		if code, err := farm.DecodeBody(w, req, &spec); err != nil {
			farm.HTTPError(w, code, fmt.Errorf("bad job spec: %w", err))
			return
		}
		if spec.TraceID == "" {
			spec.TraceID = req.Header.Get("X-Trace-Id")
		}
		// The fleet front door mints tenant identity the same way a lone
		// node does: a tenant already in the spec wins, the X-Tenant
		// header fills the gap, and Submit canonicalizes.
		if spec.Tenant == "" {
			spec.Tenant = req.Header.Get("X-Tenant")
		}
		view, err := r.Submit(req.Context(), spec)
		if err != nil {
			var se *statusError
			switch {
			case errors.As(err, &se):
				// Relay the worker's rejection verbatim — status,
				// Retry-After, body.
				if se.retryAfter != "" {
					w.Header().Set("Retry-After", se.retryAfter)
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(se.code)
				w.Write(se.body)
			case errors.Is(err, ErrFleetBusy):
				w.Header().Set("Retry-After", "1")
				farm.HTTPError(w, http.StatusTooManyRequests, err)
			case errors.Is(err, ErrNoNodes):
				farm.HTTPError(w, http.StatusServiceUnavailable, err)
			default:
				farm.HTTPError(w, http.StatusBadGateway, err)
			}
			return
		}
		w.Header().Set("X-Trace-Id", view.Spec.TraceID)
		farm.WriteJSON(w, http.StatusAccepted, view)
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, req *http.Request) {
		farm.WriteJSON(w, http.StatusOK, r.Jobs())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		wait, err := farm.ParseWait(req)
		if err != nil {
			farm.HTTPError(w, http.StatusBadRequest, err)
			return
		}
		v, ok := r.Job(req.PathValue("id"))
		if !ok {
			farm.HTTPError(w, http.StatusNotFound, fmt.Errorf("no fleet job %q", req.PathValue("id")))
			return
		}
		if wait > 0 {
			ctx, cancel := context.WithTimeout(req.Context(), wait)
			v, _ = r.WaitDone(ctx, v.ID)
			cancel()
		}
		farm.WriteJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("GET /jobs/{id}/vcd", func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		fj, ok := r.jobs[req.PathValue("id")]
		var addr, remoteID string
		if ok {
			if m := r.registry.get(fj.node); m != nil {
				addr, remoteID = m.addr, fj.remoteID
			}
		}
		r.mu.Unlock()
		if !ok {
			farm.HTTPError(w, http.StatusNotFound, fmt.Errorf("no fleet job %q", req.PathValue("id")))
			return
		}
		data := r.httpGet(req.Context(), addr+"/jobs/"+remoteID+"/vcd")
		if data == nil {
			farm.HTTPError(w, http.StatusNotFound, errors.New("no waveform available (job captured no VCD or owner unreachable)"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(data)
	})

	// Merged lifecycle trace: the router's placement timeline (submitted,
	// forward, orphaned, migrate, done) plus the owner node's job events
	// (queued, compile, run, checkpoint, retries), fetched live and
	// rendered as separate threads of one Chrome trace. Both sides share
	// the job's trace ID. If the owner is dead or unreachable the router's
	// own events still render — exactly the case (post-mortem of a
	// migrated job) where a trace is most wanted.
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		fj, ok := r.jobs[req.PathValue("id")]
		var tr *obs.Trace
		var node, addr, remoteID string
		if ok {
			tr = fj.trace
			node = fj.node
			if m := r.registry.get(fj.node); m != nil && m.state == NodeAlive {
				addr, remoteID = m.addr, fj.remoteID
			}
		}
		r.mu.Unlock()
		if !ok {
			farm.HTTPError(w, http.StatusNotFound, fmt.Errorf("no fleet job %q", req.PathValue("id")))
			return
		}
		routerView := tr.View()
		routerView.Name = "router/" + routerView.Name
		if req.URL.Query().Get("format") == "events" {
			farm.WriteJSON(w, http.StatusOK, routerView)
			return
		}
		views := []obs.TraceView{routerView}
		if addr != "" {
			if data := r.httpGet(req.Context(), addr+"/jobs/"+remoteID+"/trace?format=events"); data != nil {
				var wv obs.TraceView
				if json.Unmarshal(data, &wv) == nil {
					wv.Name = node + "/" + wv.Name
					views = append(views, wv)
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, views...)
	})

	// Every fleet job's router-side timeline on one trace (worker events
	// are per-job; fetching them all here would mean a network call per
	// job on a read path).
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		var views []obs.TraceView
		for _, id := range r.order {
			if tr := r.jobs[id].trace; tr != nil {
				views = append(views, tr.View())
			}
		}
		r.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, views...)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		r.WriteProm(w)
	})

	mux.HandleFunc("GET /artifacts/{key}", func(w http.ResponseWriter, req *http.Request) {
		data, ok := r.Artifact(req.PathValue("key"))
		if !ok {
			farm.HTTPError(w, http.StatusNotFound, fmt.Errorf("no replicated artifact %q", req.PathValue("key")))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})

	mux.HandleFunc("GET /fleet/placements", func(w http.ResponseWriter, req *http.Request) {
		var after int64
		if s := req.URL.Query().Get("after"); s != "" {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil || n < 0 {
				farm.HTTPError(w, http.StatusBadRequest, fmt.Errorf("bad after cursor %q", s))
				return
			}
			after = n
		}
		farm.WriteJSON(w, http.StatusOK, r.PlacementDelta(after))
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		farm.WriteJSON(w, http.StatusOK, r.Stats())
	})

	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteStatus(w)
	})

	health := func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
	mux.HandleFunc("GET /livez", health)
	mux.HandleFunc("GET /readyz", health)
	mux.HandleFunc("GET /healthz", health)

	return mux
}
