package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"time"

	"dedupsim/internal/durable"
	"dedupsim/internal/farm"
	"dedupsim/internal/obs"
	"dedupsim/internal/sim"
	"dedupsim/internal/tenant"
)

// Router durability. The router's hard state is small — which nodes are
// members, and where every fleet job lives — but losing it loses jobs:
// a restarted amnesiac router would drop every in-flight placement and
// never migrate the jobs of a node that died while it was down. So the
// router journals placements to a write-ahead log (the placement
// journal, durable.OpenRouterStore) and persists its migration
// insurance — replicated checkpoints and compile artifacts — in the
// same data dir. Recovery replays the journal, probes the journaled
// node set to re-adopt survivors, re-tracks unfinished jobs, and
// resumes migration duty exactly where the crash interrupted it.

// RouterRecoveryStats reports what OpenRouter recovered, mirrored into
// /stats, /statusz, and /metrics so operators can see a restart's
// blast radius.
type RouterRecoveryStats struct {
	// PlacementsReplayed counts job-lifecycle records folded from the
	// journal (node records are tallied separately): after a clean Close
	// of a quiescent router this is zero, because Close compacts the
	// journal down to live state.
	PlacementsReplayed int64 `json:"placements_replayed"`
	// NodeRecordsReplayed counts node membership records folded.
	NodeRecordsReplayed int64 `json:"node_records_replayed,omitempty"`
	// JournalBytesDropped is the torn tail truncated on open.
	JournalBytesDropped int64 `json:"journal_bytes_dropped,omitempty"`
	// JobsRecovered counts unfinished fleet jobs re-tracked.
	JobsRecovered int64 `json:"jobs_recovered"`
	// NodesReadopted counts journaled nodes that answered the recovery
	// probe and rejoined the ring without re-registering.
	NodesReadopted int64 `json:"nodes_readopted"`
	// NodesLostWhileDown counts journaled nodes that did not answer; their
	// unfinished jobs were orphaned for migration.
	NodesLostWhileDown int64 `json:"nodes_lost_while_down,omitempty"`
	// CheckpointsLoaded counts persisted checkpoints re-attached to
	// recovered jobs.
	CheckpointsLoaded int64 `json:"checkpoints_loaded,omitempty"`
	// ArtifactsReloaded counts replicated artifacts reloaded from disk.
	ArtifactsReloaded int64 `json:"artifacts_reloaded"`
	// RecoveryMillis is wall time from journal open to ready.
	RecoveryMillis float64 `json:"recovery_millis"`
}

// bumpSeqLocked advances the router's mutation sequence. Call it for
// every placement-relevant change (and only those), so peer delta pulls
// see exactly what changed.
func (r *Router) bumpSeqLocked() int64 {
	r.seq++
	return r.seq
}

// journalLocked appends one placement record (no-op without a store).
// Best-effort by design, like the farm's journal writes: a full disk
// must degrade the router to in-memory behaviour, not take the fleet
// down.
func (r *Router) journalLocked(rec durable.Record) {
	if r.store == nil {
		return
	}
	r.appends++
	if err := r.store.Append(rec); err != nil && !errors.Is(err, durable.ErrFrozen) {
		r.logf("cluster: placement journal: %v", err)
	}
}

// journalAdmitLocked journals a fresh admission + placement pair.
func (r *Router) journalAdmitLocked(fj *fleetJob, spilled bool) {
	if r.store == nil {
		return
	}
	b, err := json.Marshal(fj.spec)
	if err != nil {
		return
	}
	r.journalLocked(durable.Record{Type: durable.RecAdmit, Job: fj.id, Spec: b, Key: fj.routeKey})
	r.journalLocked(durable.Record{
		Type: durable.RecPlace, Job: fj.id, Node: fj.node, Remote: fj.remoteID, Spilled: spilled,
	})
}

// parseFleetID extracts the numeric suffix of a fleet job ID ("fj-N"
// or "<router>-fj-N"), or 0 for foreign formats (adopted peer jobs keep
// their minting router's counter).
func parseFleetID(id string) int64 {
	i := strings.LastIndex(id, "fj-")
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(id[i+len("fj-"):], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// ownID reports whether a fleet job ID was minted by this router (and
// should advance its counter on replay).
func (r *Router) ownID(id string) bool {
	if r.routerID == "" {
		return strings.HasPrefix(id, "fj-")
	}
	return strings.HasPrefix(id, r.routerID+"-fj-")
}

// recoverFromStore rebuilds router state from the placement journal.
// Runs from OpenRouter before the heartbeat loop starts, so nothing
// races it; network probes run synchronously here.
func (r *Router) recoverFromStore() error {
	start := time.Now()
	rec := &RouterRecoveryStats{}

	type repNode struct {
		addr string
		dead bool
	}
	nodes := map[string]*repNode{}
	var nodeOrder []string
	type repJob struct {
		spec       json.RawMessage
		key        string
		node       string
		remote     string
		migrations int
		orphaned   bool
		terminal   bool
		status     string
	}
	jobs := map[string]*repJob{}
	var jobOrder []string
	var maxID int64

	info, err := r.store.Replay(func(p durable.Record) {
		switch p.Type {
		case durable.RecNode:
			if p.Node == "" || p.Addr == "" {
				return
			}
			if n, ok := nodes[p.Node]; ok {
				n.addr, n.dead = p.Addr, false
			} else {
				nodes[p.Node] = &repNode{addr: p.Addr}
				nodeOrder = append(nodeOrder, p.Node)
			}
			rec.NodeRecordsReplayed++
		case durable.RecNodeDead:
			if n, ok := nodes[p.Node]; ok {
				n.dead = true
			}
			rec.NodeRecordsReplayed++
		case durable.RecAdmit:
			if p.Job == "" || len(p.Spec) == 0 {
				return
			}
			if _, ok := jobs[p.Job]; !ok {
				jobs[p.Job] = &repJob{spec: p.Spec, key: p.Key}
				jobOrder = append(jobOrder, p.Job)
			}
			if r.ownID(p.Job) {
				if n := parseFleetID(p.Job); n > maxID {
					maxID = n
				}
			}
			rec.PlacementsReplayed++
		case durable.RecPlace:
			if j, ok := jobs[p.Job]; ok {
				j.node, j.remote, j.orphaned = p.Node, p.Remote, false
				if p.Migrations > j.migrations {
					// A compacted journal folds migrate history into the
					// place record.
					j.migrations = p.Migrations
				}
			}
			rec.PlacementsReplayed++
		case durable.RecOrphan:
			if j, ok := jobs[p.Job]; ok {
				j.orphaned = true
			}
			rec.PlacementsReplayed++
		case durable.RecMigrate:
			if j, ok := jobs[p.Job]; ok {
				j.node, j.remote, j.orphaned = p.Node, p.Remote, false
				j.migrations++
			}
			rec.PlacementsReplayed++
		case durable.RecFinish:
			if j, ok := jobs[p.Job]; ok {
				j.terminal = true
				j.status = p.Status
			}
			rec.PlacementsReplayed++
		}
	})
	if err != nil {
		return err
	}
	rec.JournalBytesDropped = info.DroppedBytes
	r.nextID = maxID

	// Probe the journaled membership synchronously: a node that answers
	// rejoins the ring as if it never left (its registration survives the
	// router restart, so workers do not re-register); one that does not
	// answer died while the router was down — mark it dead now so its
	// jobs orphan and migrate below.
	now := time.Now()
	for _, id := range nodeOrder {
		n := nodes[id]
		if err := r.registry.Register(id, n.addr, now); err != nil {
			continue
		}
		if n.dead {
			r.registry.markDead(id)
			continue
		}
		res := r.probeNode(context.Background(), id, n.addr)
		if res.alive {
			if m := r.registry.get(id); m != nil {
				m.ready = res.ready
				if res.stats != nil {
					m.stats = res.stats
				}
			}
			rec.NodesReadopted++
			r.logf("cluster: recovery re-adopted node %s at %s", id, n.addr)
		} else {
			r.registry.markDead(id)
			r.deaths++
			rec.NodesLostWhileDown++
			r.logf("cluster: recovery found node %s dead", id)
		}
	}

	// Re-track replayed fleet jobs. Unfinished jobs on a dead (or
	// vanished) node are orphaned here and the first heartbeat tick
	// migrates them; the rest get completion watchers once recovery is
	// done. Finished jobs become terminal tombstones — status from the
	// journal, stats backfilled by one watcher GET to the owner if it is
	// still alive — so clients can keep querying jobs that completed
	// shortly before the crash.
	for _, id := range jobOrder {
		rj := jobs[id]
		var spec farm.JobSpec
		if json.Unmarshal(rj.spec, &spec) != nil {
			continue
		}
		if spec.TraceID == "" {
			spec.TraceID = obs.NewTraceID()
		}
		// Journals written before multi-tenancy carry no tenant field;
		// replayed jobs belong to the default tenant — no flag-day.
		if spec.Tenant == "" {
			spec.Tenant = tenant.Default
		}
		fj := &fleetJob{
			id:         id,
			spec:       spec,
			routeKey:   rj.key,
			node:       rj.node,
			remoteID:   rj.remote,
			migrations: rj.migrations,
			orphaned:   rj.orphaned && !rj.terminal,
			terminal:   rj.terminal,
			created:    now,
			rev:        1,
		}
		fj.seq = r.bumpSeqLocked()
		// The pre-crash trace ring died with the process; the recovered
		// trace keeps the fleet-wide ID and restarts the story here.
		fj.trace = obs.NewTrace(spec.TraceID, id)
		fj.trace.Instant("recovered")
		if rj.terminal {
			fj.view.Status = farm.Status(rj.status)
			r.jobs[id] = fj
			r.order = append(r.order, id)
			rec.JobsRecovered++
			continue
		}
		for _, data := range r.store.LoadCheckpoint(id) {
			if snap, derr := sim.DecodeSnapshot(data); derr == nil {
				fj.checkpoint = data
				fj.ckptCycle = snap.Cycles
				rec.CheckpointsLoaded++
				break
			}
		}
		m := r.registry.get(fj.node)
		if m == nil || m.state == NodeDead {
			if !fj.orphaned {
				fj.orphaned = true
				fj.trace.Instant("orphaned", "node", fj.node, "cause", "router-recovery")
			}
		} else if !fj.orphaned {
			m.load++
		}
		r.jobs[id] = fj
		r.order = append(r.order, id)
		rec.JobsRecovered++
	}

	// GC checkpoints whose job finished (or whose admit record was lost
	// with a torn tail — a stale checkpoint must not outlive its job).
	for _, id := range r.store.Checkpoints() {
		if _, live := r.jobs[id]; !live {
			r.store.RemoveCheckpoint(id)
		}
	}

	// Reload replicated artifacts from the disk tier into the bounded
	// memory cache (newest-first would need mtimes; insertion order is
	// fine — overflow stays on disk and re-serves through the disk
	// fallback in Artifact). Corrupt files are dropped, not served.
	for _, name := range r.store.Artifacts() {
		data, ok := r.store.LoadArtifact(name)
		if !ok {
			continue
		}
		if _, _, derr := farm.DecodeArtifact(data); derr != nil {
			r.store.RemoveArtifact(name)
			continue
		}
		r.artifacts.Put(name, data)
		rec.ArtifactsReloaded++
	}

	// Compact the journal to exactly the live state so it does not grow
	// with the full history of every job that ever ran.
	if err := r.compactJournal(); err != nil {
		return err
	}

	rec.RecoveryMillis = float64(time.Since(start).Microseconds()) / 1000
	r.recovery = rec
	r.logf("cluster: router recovered: %d placements replayed, %d jobs, %d nodes re-adopted, %d artifacts (%.1fms)",
		rec.PlacementsReplayed, rec.JobsRecovered, rec.NodesReadopted, rec.ArtifactsReloaded, rec.RecoveryMillis)
	return nil
}

// compactJournal rewrites the placement journal to current state: live
// node registrations, then each unfinished job's admit/place/orphan
// fold. Terminal jobs and dead nodes vanish — their history has no
// future reader. Callers must ensure no concurrent appends (recovery
// runs before the loops start; Close runs after they stop).
func (r *Router) compactJournal() error {
	if r.store == nil {
		return nil
	}
	r.mu.Lock()
	var live []durable.Record
	for _, v := range r.registry.Views() {
		if v.State == NodeDead {
			continue
		}
		live = append(live, durable.Record{Type: durable.RecNode, Node: v.ID, Addr: v.Addr})
	}
	for _, id := range r.order {
		fj := r.jobs[id]
		if fj.terminal {
			continue
		}
		b, err := json.Marshal(fj.spec)
		if err != nil {
			continue
		}
		live = append(live, durable.Record{Type: durable.RecAdmit, Job: id, Spec: b, Key: fj.routeKey})
		if fj.node != "" {
			live = append(live, durable.Record{
				Type: durable.RecPlace, Job: id, Node: fj.node, Remote: fj.remoteID, Migrations: fj.migrations,
			})
		}
		if fj.orphaned {
			live = append(live, durable.Record{Type: durable.RecOrphan, Job: id, Node: fj.node})
		}
	}
	r.mu.Unlock()
	return r.store.Compact(live)
}

// RecoveryStats returns what the last OpenRouter replayed (nil for a
// fresh or in-memory router).
func (r *Router) RecoveryStats() *RouterRecoveryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recovery
}
