package cluster

import (
	"context"
	"encoding/json"
	"strconv"
	"time"

	"dedupsim/internal/durable"
	"dedupsim/internal/farm"
	"dedupsim/internal/obs"
)

// Router HA. Two or more routers front one node set: each probes the
// nodes itself (liveness needs no consensus — a node is alive if it
// answers you), and each pulls the others' placement deltas on the
// heartbeat cadence so every router tracks every fleet job. Clients can
// then query or await any job at any router, and a router crash loses
// nothing: the survivors already hold the placements, checkpoints ride
// in the deltas, and migration duty fails over by the ownership rule
// below.
//
// The protocol is deliberately primitive — pull-only, no quorum, no
// leader election. Placement state is per-job last-writer-wins (rev),
// checkpoints merge by cycle number, and the only coordination that
// matters — "exactly one router migrates a dead node's jobs" — reduces
// to a deterministic rule every router can evaluate alone: the lowest
// live router ID migrates. During the window where routers disagree
// about which of them is lowest-live, migration is at-least-once, which
// the farm tier already tolerates (a duplicate run is wasted work, not
// wrong results).

// peerState tracks one configured peer router.
type peerState struct {
	addr string
	// id is the peer's RouterID, learned from its first delta.
	id string
	// lastSeq is the high-water mark of the peer's mutation sequence
	// we've applied; the next pull asks for ?after=lastSeq.
	lastSeq int64
	// missed counts consecutive failed pulls; at cfg.DeadAfter the peer
	// is considered down (and loses migration ownership if it held it).
	missed int
	up     bool
	lastOK time.Time
}

// PeerView is a peer's state as served by /stats.
type PeerView struct {
	ID      string `json:"id,omitempty"`
	Addr    string `json:"addr"`
	Up      bool   `json:"up"`
	LastSeq int64  `json:"last_seq"`
}

// PlacementDelta is the GET /fleet/placements response: this router's
// identity and mutation sequence, its full node view (small, always
// sent), and every fleet job that changed after the requested sequence.
type PlacementDelta struct {
	RouterID string      `json:"router_id"`
	Seq      int64       `json:"seq"`
	Nodes    []DeltaNode `json:"nodes"`
	Jobs     []DeltaJob  `json:"jobs,omitempty"`
}

// DeltaNode is one node membership entry in a placement delta.
type DeltaNode struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	Dead bool   `json:"dead,omitempty"`
}

// DeltaJob is one fleet job in a placement delta. Rev orders competing
// updates; Checkpoint carries the newest replicated snapshot so a peer
// can migrate this job even if both the owner node and the minting
// router die.
type DeltaJob struct {
	ID         string       `json:"id"`
	Spec       farm.JobSpec `json:"spec"`
	Key        string       `json:"key"`
	Node       string       `json:"node,omitempty"`
	Remote     string       `json:"remote,omitempty"`
	View       farm.JobView `json:"view"`
	Orphaned   bool         `json:"orphaned,omitempty"`
	Terminal   bool         `json:"terminal,omitempty"`
	Migrations int          `json:"migrations,omitempty"`
	CkptCycle  int64        `json:"ckpt_cycle,omitempty"`
	Checkpoint []byte       `json:"checkpoint,omitempty"`
	Rev        int64        `json:"rev"`
}

// PlacementDelta renders this router's state for a peer that has seen
// everything up to after.
func (r *Router) PlacementDelta(after int64) PlacementDelta {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := PlacementDelta{RouterID: r.routerID, Seq: r.seq}
	for _, v := range r.registry.Views() {
		d.Nodes = append(d.Nodes, DeltaNode{ID: v.ID, Addr: v.Addr, Dead: v.State == NodeDead})
	}
	for _, id := range r.order {
		fj := r.jobs[id]
		if fj.seq <= after {
			continue
		}
		d.Jobs = append(d.Jobs, DeltaJob{
			ID:         fj.id,
			Spec:       fj.spec,
			Key:        fj.routeKey,
			Node:       fj.node,
			Remote:     fj.remoteID,
			View:       fj.view,
			Orphaned:   fj.orphaned,
			Terminal:   fj.terminal,
			Migrations: fj.migrations,
			CkptCycle:  fj.ckptCycle,
			Checkpoint: fj.checkpoint,
			Rev:        fj.rev,
		})
	}
	return d
}

// syncPeers pulls every configured peer's delta once. Runs on the
// heartbeat cadence, after the node poll.
func (r *Router) syncPeers(ctx context.Context) {
	for _, p := range r.peers {
		r.mu.Lock()
		after := p.lastSeq
		addr := p.addr
		r.mu.Unlock()

		data := r.httpGet(ctx, addr+"/fleet/placements?after="+strconv.FormatInt(after, 10))
		if data == nil {
			r.mu.Lock()
			p.missed++
			if p.missed >= r.cfg.DeadAfter && p.up {
				p.up = false
				r.logf("cluster: peer router %s (%s) down after %d missed syncs", p.id, addr, p.missed)
			}
			r.peerSyncFails++
			r.mu.Unlock()
			continue
		}
		var d PlacementDelta
		if err := json.Unmarshal(data, &d); err != nil {
			r.mu.Lock()
			p.missed++
			r.peerSyncFails++
			r.mu.Unlock()
			continue
		}
		r.applyPeerDelta(p, d)
	}
}

// applyPeerDelta merges one peer's delta into local state.
func (r *Router) applyPeerDelta(p *peerState, d PlacementDelta) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()

	if !p.up && p.id != "" {
		r.logf("cluster: peer router %s back up", d.RouterID)
	}
	p.id = d.RouterID
	p.lastSeq = d.Seq
	p.missed = 0
	p.up = true
	p.lastOK = now
	r.peerSyncs++

	// Nodes: adopt members we have never seen (the peer's registrations
	// propagate, so workers only join one router). For nodes we already
	// track, our own prober is the authority — gossiped deaths are not
	// applied over a local alive observation.
	for _, n := range d.Nodes {
		if m := r.registry.get(n.ID); m != nil {
			continue
		}
		if err := r.registry.Register(n.ID, n.Addr, now); err != nil {
			continue
		}
		if n.Dead {
			r.registry.markDead(n.ID)
			continue
		}
		r.journalLocked(durable.Record{Type: durable.RecNode, Node: n.ID, Addr: n.Addr})
		r.logf("cluster: adopted node %s at %s from peer %s", n.ID, n.Addr, d.RouterID)
	}

	for _, pj := range d.Jobs {
		fj, ok := r.jobs[pj.ID]
		if !ok {
			// A job we have never seen: adopt it wholesale. From here on
			// our own watcher follows it (the next heartbeat starts one;
			// we know node + remote ID), and we can migrate it if duty
			// falls to us.
			fj = &fleetJob{
				id:         pj.ID,
				spec:       pj.Spec,
				routeKey:   pj.Key,
				node:       pj.Node,
				remoteID:   pj.Remote,
				view:       pj.View,
				orphaned:   pj.Orphaned,
				terminal:   pj.Terminal,
				migrations: pj.Migrations,
				ckptCycle:  pj.CkptCycle,
				checkpoint: pj.Checkpoint,
				created:    now,
				rev:        pj.Rev,
			}
			fj.seq = r.bumpSeqLocked()
			fj.trace = obs.NewTrace(pj.Spec.TraceID, pj.ID)
			fj.trace.Instant("adopted", "from", d.RouterID)
			r.jobs[pj.ID] = fj
			r.order = append(r.order, pj.ID)
			if !fj.terminal && !fj.orphaned {
				if m := r.registry.get(fj.node); m != nil {
					m.load++
				}
			}
			r.jobsAdopted++
			r.journalAdoptedLocked(fj)
			continue
		}
		if pj.Rev > fj.rev {
			// The peer has seen more of this job's life than we have:
			// take its placement state. Load bookkeeping follows the
			// non-terminal, non-orphaned owner.
			wasCounted := !fj.terminal && !fj.orphaned
			nowCounted := !pj.Terminal && !pj.Orphaned
			if wasCounted && (!nowCounted || pj.Node != fj.node) {
				if m := r.registry.get(fj.node); m != nil {
					m.load--
				}
			}
			if nowCounted && (!wasCounted || pj.Node != fj.node) {
				if m := r.registry.get(pj.Node); m != nil {
					m.load++
				}
			}
			fj.node = pj.Node
			fj.remoteID = pj.Remote
			fj.orphaned = pj.Orphaned
			fj.migrations = pj.Migrations
			if !fj.terminal {
				fj.view = pj.View
				if pj.Terminal {
					fj.terminal = true
					if r.store != nil {
						// As in finishLocked: our watcher will hit the
						// terminal guard, so the checkpoint goes here.
						r.store.RemoveCheckpoint(fj.id)
					}
					fj.trace.Instant("done", "status", string(pj.View.Status), "node", pj.Node)
					r.notifyLocked()
				}
			}
			fj.rev = pj.Rev
			fj.seq = r.bumpSeqLocked()
			r.journalAdoptedLocked(fj)
		}
		// Checkpoints merge by cycle regardless of rev: both routers pull
		// them from nodes independently and the freshest wins.
		if pj.CkptCycle > fj.ckptCycle && len(pj.Checkpoint) > 0 {
			fj.checkpoint = pj.Checkpoint
			fj.ckptCycle = pj.CkptCycle
		}
	}
}

// journalAdoptedLocked journals a peer-learned job's current fold so a
// restart still knows it even if every peer is down by then.
func (r *Router) journalAdoptedLocked(fj *fleetJob) {
	if r.store == nil {
		return
	}
	if fj.terminal {
		r.journalLocked(durable.Record{Type: durable.RecFinish, Job: fj.id, Status: string(fj.view.Status)})
		return
	}
	b, err := json.Marshal(fj.spec)
	if err != nil {
		return
	}
	r.journalLocked(durable.Record{Type: durable.RecAdmit, Job: fj.id, Spec: b, Key: fj.routeKey})
	if fj.node != "" {
		r.journalLocked(durable.Record{
			Type: durable.RecPlace, Job: fj.id, Node: fj.node, Remote: fj.remoteID, Migrations: fj.migrations,
		})
	}
	if fj.orphaned {
		r.journalLocked(durable.Record{Type: durable.RecOrphan, Job: fj.id, Node: fj.node})
	}
}

// migrationOwnerLocked returns the router ID that owns migration duty
// right now: the lowest ID among this router and the peers currently
// believed up. Every router evaluates the same rule over (eventually)
// the same information, so exactly one claims duty once views settle;
// while they disagree, migration is at-least-once, never zero-times —
// the survivor always steps up.
func (r *Router) migrationOwnerLocked() string {
	owner := r.routerID
	for _, p := range r.peers {
		if p.up && p.id != "" && p.id < owner {
			owner = p.id
		}
	}
	return owner
}

// Peers snapshots peer router state for /stats.
func (r *Router) Peers() []PeerView {
	r.mu.Lock()
	defer r.mu.Unlock()
	views := make([]PeerView, 0, len(r.peers))
	for _, p := range r.peers {
		views = append(views, PeerView{ID: p.id, Addr: p.addr, Up: p.up, LastSeq: p.lastSeq})
	}
	return views
}
