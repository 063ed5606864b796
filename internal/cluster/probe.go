package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dedupsim/internal/durable"
	"dedupsim/internal/farm"
	"dedupsim/internal/sim"
)

// Heartbeats. The router is the only prober — nodes never gossip — so
// liveness is one round of GETs per tick against each node's existing
// health endpoints (/livez, /readyz; nothing cluster-specific runs on a
// node). The same tick pulls the migration insurance the router wants
// off a node while it is still alive: non-terminal job views (for
// checkpoint advancement), fresh checkpoints, compile artifacts, and
// stats. Pulling eagerly is the point — once a node dies it cannot be
// asked for anything, so that insurance must already be here. Terminal
// transitions do not ride the tick: completion watchers (watch.go)
// long-poll each placed job, and the tick only restarts a watcher that
// went missing.

// heartbeatLoop drives pollOnce until Close.
func (r *Router) heartbeatLoop() {
	defer close(r.stopped)
	t := time.NewTicker(r.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.pollOnce(context.Background())
			r.syncPeers(context.Background())
		}
	}
}

// probeResult is one node's poll outcome, applied under r.mu after all
// network calls finished.
type probeResult struct {
	id    string
	alive bool
	ready bool
	stats *farm.Stats    // nil if /stats failed or was not valid JSON
	jobs  []farm.JobView // the node's non-terminal jobs
}

// pollOnce probes every non-dead node, applies liveness transitions,
// replicates checkpoints and artifacts, and re-places orphans. All
// network I/O happens outside r.mu.
func (r *Router) pollOnce(ctx context.Context) {
	r.mu.Lock()
	var targets []probeTarget
	for _, v := range r.registry.Views() {
		if v.State != NodeDead {
			targets = append(targets, probeTarget{v.ID, v.Addr})
		}
	}
	r.mu.Unlock()

	results := make([]probeResult, 0, len(targets))
	for _, t := range targets {
		results = append(results, r.probeNode(ctx, t.id, t.addr))
	}
	ckptPulls := r.applyProbes(results, time.Now())

	// Pull fresh checkpoints off live nodes (migration insurance).
	for _, p := range ckptPulls {
		data := r.httpGet(ctx, p.addr+"/jobs/"+p.remoteID+"/checkpoint")
		if data == nil {
			continue
		}
		snap, err := sim.DecodeSnapshot(data)
		if err != nil {
			continue // torn mid-write read; next tick retries
		}
		r.mu.Lock()
		installed := false
		if fj, ok := r.jobs[p.fleetID]; ok && snap.Cycles > fj.ckptCycle {
			fj.checkpoint = data
			fj.ckptCycle = snap.Cycles
			// seq only, no rev bump: peers learn fresh checkpoints through
			// the cycle-compare merge, not last-writer-wins (both routers
			// pull checkpoints independently and the newest must win).
			fj.seq = r.bumpSeqLocked()
			r.ckptsPulled++
			installed = true
		}
		r.mu.Unlock()
		if installed && r.store != nil {
			// Persist outside r.mu — migration insurance must survive the
			// router too, not just the node.
			if err := r.store.SaveCheckpoint(p.fleetID, data); err != nil {
				r.logf("cluster: persist checkpoint %s: %v", p.fleetID, err)
			}
		}
	}

	r.replicateArtifacts(ctx, results, targets)
	r.migrateOrphans(ctx)
}

// ckptPull is one checkpoint fetch a heartbeat round owes a live node.
type ckptPull struct{ fleetID, addr, remoteID string }

// applyProbes folds one heartbeat round into router state under r.mu:
// liveness transitions, the nodes' non-terminal job views, orphaning of
// a newly dead node's jobs, and a watcher for every placement left
// without one. It returns the checkpoint pulls to make outside the lock.
func (r *Router) applyProbes(results []probeResult, now time.Time) []ckptPull {
	var ckptPulls []ckptPull
	r.mu.Lock()
	defer r.mu.Unlock()
	var newlyDead []string
	for _, res := range results {
		m := r.registry.get(res.id)
		if m == nil || m.state == NodeDead {
			continue
		}
		if !res.alive {
			m.missed++
			m.ready = false
			if m.missed >= r.cfg.DeadAfter {
				r.registry.markDead(res.id)
				r.deaths++
				newlyDead = append(newlyDead, res.id)
			} else {
				m.state = NodeSuspect
			}
			continue
		}
		m.missed = 0
		m.state = NodeAlive
		m.ready = res.ready
		m.lastSeen = now
		if res.stats != nil {
			m.stats = res.stats
		}
		remote := make(map[string]farm.JobView, len(res.jobs))
		for _, v := range res.jobs {
			remote[v.ID] = v
		}
		for _, fj := range r.jobs {
			if fj.node != res.id || fj.orphaned {
				continue
			}
			v, ok := remote[fj.remoteID]
			if !ok {
				continue
			}
			r.applyViewLocked(fj, v, now)
			if !fj.terminal && v.CheckpointCycle > fj.ckptCycle {
				ckptPulls = append(ckptPulls, ckptPull{fj.id, m.addr, fj.remoteID})
			}
		}
	}
	for _, id := range newlyDead {
		r.journalLocked(durable.Record{Type: durable.RecNodeDead, Node: id})
		orphans := 0
		for _, fj := range r.jobs {
			if fj.node == id && !fj.terminal {
				fj.orphaned = true
				fj.rev++
				fj.seq = r.bumpSeqLocked()
				r.journalLocked(durable.Record{Type: durable.RecOrphan, Job: fj.id, Node: id})
				fj.trace.Instant("orphaned", "node", id, "cause", "node-death")
				orphans++
			}
		}
		r.migrationLogs.add(fmt.Sprintf("%s node %s dead (%d missed probes), %d jobs orphaned",
			now.Format(time.RFC3339), id, r.cfg.DeadAfter, orphans))
		r.logf("cluster: node %s dead, %d jobs to migrate", id, orphans)
	}
	r.watchAllLocked()
	return ckptPulls
}

// probeTarget is one node to poll this tick (snapshotted under r.mu so
// the network round runs lock-free).
type probeTarget struct{ id, addr string }

// replicateArtifacts copies compile artifacts the router has not seen
// off live nodes, so they survive the node that compiled them.
func (r *Router) replicateArtifacts(ctx context.Context, results []probeResult, targets []probeTarget) {
	addrs := make(map[string]string, len(targets))
	for _, t := range targets {
		addrs[t.id] = t.addr
	}
	for _, res := range results {
		if !res.alive {
			continue
		}
		data := r.httpGet(ctx, addrs[res.id]+"/cache")
		if data == nil {
			continue
		}
		var cache struct {
			Entries []farm.CacheEntryView `json:"entries"`
		}
		if json.Unmarshal(data, &cache) != nil {
			continue
		}
		for _, e := range cache.Entries {
			if e.Failed {
				continue
			}
			key := farm.ArtifactKey(e.CircuitHash, e.Variant)
			r.mu.Lock()
			_, have := r.artifacts.Get(key)
			r.mu.Unlock()
			if !have && r.store != nil {
				// Evicted from memory but persisted: no need to re-pull it
				// off a node; Artifact falls through to disk on demand.
				if _, ok := r.store.LoadArtifact(key); ok {
					have = true
				}
			}
			if have {
				continue
			}
			art := r.httpGet(ctx, addrs[res.id]+"/artifacts/"+key)
			if art == nil {
				continue
			}
			if _, _, err := farm.DecodeArtifact(art); err != nil {
				continue
			}
			r.mu.Lock()
			if _, have := r.artifacts.Get(key); !have {
				r.artifacts.Put(key, art)
				r.artsPulled++
			}
			r.mu.Unlock()
			if r.store != nil {
				if err := r.store.SaveArtifact(key, art); err != nil {
					r.logf("cluster: persist artifact %s: %v", key[:12], err)
				}
			}
			r.logf("cluster: replicated artifact %s from %s", key[:12], res.id)
		}
	}
}

// migrateOrphans re-places jobs whose owner died: the saved checkpoint
// rides along in the spec so the new owner resumes mid-run instead of
// restarting, and the artifact store warms its compile. Failures stay
// orphaned and retry next tick.
func (r *Router) migrateOrphans(ctx context.Context) {
	r.mu.Lock()
	if len(r.peers) > 0 && r.migrationOwnerLocked() != r.routerID {
		// Another live router owns migration duty; double-migrating a
		// dead node's jobs would run them twice. We keep tracking the
		// orphans and adopt the owner's re-placements via peer sync.
		r.mu.Unlock()
		return
	}
	type pending struct {
		id         string
		spec       farm.JobSpec
		candidates []*member
	}
	var work []pending
	for _, id := range r.order {
		fj := r.jobs[id]
		if !fj.orphaned {
			continue
		}
		spec := fj.spec
		spec.Checkpoint = fj.checkpoint
		work = append(work, pending{id, spec, r.placeLocked(fj.routeKey)})
	}
	r.mu.Unlock()

	for _, w := range work {
		for _, m := range w.candidates {
			view, err := r.forwardSubmit(ctx, m.addr, w.spec)
			if err != nil {
				continue
			}
			r.mu.Lock()
			fj, ok := r.jobs[w.id]
			if !ok || !fj.orphaned {
				r.mu.Unlock()
				break
			}
			from := fj.node
			fj.node = m.id
			fj.remoteID = view.ID
			fj.view = view
			fj.orphaned = false
			fj.terminal = false
			fj.migrations++
			fj.rev++
			fj.seq = r.bumpSeqLocked()
			m.load++
			r.migrations++
			r.journalLocked(durable.Record{
				Type: durable.RecMigrate, Job: fj.id, Node: m.id, From: from,
				Remote: view.ID, Cycle: fj.ckptCycle,
			})
			r.ensureWatchLocked(fj)
			fj.trace.Instant("migrate", "from", from, "to", m.id,
				"cause", "node-death", "resume_cycle", strconv.FormatInt(fj.ckptCycle, 10))
			r.migrationLogs.add(fmt.Sprintf("%s job %s migrated %s -> %s (resume from cycle %d)",
				time.Now().Format(time.RFC3339), fj.id, from, m.id, fj.ckptCycle))
			r.mu.Unlock()
			r.logf("cluster: job %s migrated %s -> %s at cycle %d (trace %s)",
				w.id, from, m.id, fj.ckptCycle, fj.spec.TraceID)
			break
		}
	}
}

// probeNode runs one node's health + state round. A node is alive iff
// /livez answers 200; everything after that is best-effort.
func (r *Router) probeNode(ctx context.Context, id, addr string) probeResult {
	res := probeResult{id: id}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/livez", nil)
	if err != nil {
		return res
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return res
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res
	}
	res.alive = true

	if req, err = http.NewRequestWithContext(ctx, http.MethodGet, addr+"/readyz", nil); err == nil {
		if resp, err := r.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			res.ready = resp.StatusCode == http.StatusOK
		}
	}
	if data := r.httpGet(ctx, addr+"/stats"); data != nil {
		var fs farm.Stats
		if json.Unmarshal(data, &fs) == nil {
			res.stats = &fs
		}
	}
	if data := r.httpGet(ctx, addr+"/jobs?live=1"); data != nil {
		var views []farm.JobView
		if json.Unmarshal(data, &views) == nil {
			res.jobs = views
		}
	}
	return res
}

// httpGet returns a 200 response's body, or nil on any failure.
func (r *Router) httpGet(ctx context.Context, url string) []byte {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return data
}
