package cluster

import (
	"fmt"
	"time"

	"dedupsim/internal/farm"
)

// NodeState is a registered node's liveness state as judged by the
// router's heartbeat prober.
type NodeState string

const (
	// NodeAlive nodes answered their latest liveness probe.
	NodeAlive NodeState = "alive"
	// NodeSuspect nodes missed at least one probe but fewer than the
	// death threshold; they keep their ring points (placement avoids
	// them, but their in-flight jobs are not yet migrated).
	NodeSuspect NodeState = "suspect"
	// NodeDead nodes missed DeadAfter consecutive probes: they are off
	// the ring and their unfinished jobs migrate to successors. A dead
	// node that comes back must re-register (a new incarnation).
	NodeDead NodeState = "dead"
)

// member is one registered node. Guarded by the Router's mutex (the
// Registry itself, like Ring, is not concurrency-safe).
type member struct {
	id   string
	addr string // base URL, e.g. "http://10.0.0.7:8080"

	state    NodeState
	ready    bool // /readyz said ok (not draining)
	missed   int  // consecutive failed probes
	joined   time.Time
	lastSeen time.Time

	// load is the router's own count of non-terminal fleet jobs placed
	// on this node — the bounded-load signal. It is tracked at the
	// router (not polled) so placement decisions are consistent with the
	// router's forwarding history even between heartbeats.
	load int

	// stats is the node's last polled farm.Stats, decoded outside r.mu
	// (nil before the first poll that returned valid JSON). A poll
	// replaces it whole and never mutates it, so snapshots may share it.
	stats *farm.Stats
}

// NodeView is a member's externally visible snapshot.
type NodeView struct {
	ID           string    `json:"id"`
	Addr         string    `json:"addr"`
	State        NodeState `json:"state"`
	Ready        bool      `json:"ready"`
	Load         int       `json:"load"`
	MissedProbes int       `json:"missed_probes,omitempty"`
	JoinedAt     time.Time `json:"joined_at"`
	LastSeen     time.Time `json:"last_seen,omitempty"`
}

// Registry is the membership table plus its consistent-hash ring: who is
// in the fleet, where they listen, whether they are alive, and which
// keys they own. Not safe for concurrent use; the Router guards it.
type Registry struct {
	ring    *Ring
	members map[string]*member
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ring: NewRing(), members: map[string]*member{}}
}

// Register admits a node. Rules:
//
//   - new ID: joins alive and enters the ring;
//   - same ID, same addr, not dead: idempotent re-register (heartbeat
//     counters reset) — a worker retrying its registration is harmless;
//   - same ID, different addr, not dead: rejected — two live processes
//     claiming one identity would split that identity's jobs between
//     them, so the second registrant must pick another -node-id;
//   - same ID, dead: a new incarnation replaces the corpse (same or new
//     addr) and rejoins the ring with the same points, reclaiming the
//     identity's key ownership.
func (g *Registry) Register(id, addr string, now time.Time) error {
	if id == "" || addr == "" {
		return fmt.Errorf("cluster: node id and addr are required")
	}
	if m, ok := g.members[id]; ok {
		if m.state != NodeDead && m.addr != addr {
			return fmt.Errorf("cluster: node id %q already registered at %s (pick a distinct -node-id)", id, m.addr)
		}
		// Idempotent re-register or a dead node's new incarnation.
		m.addr = addr
		m.state = NodeAlive
		m.ready = true
		m.missed = 0
		m.lastSeen = now
		g.ring.Add(id)
		return nil
	}
	g.members[id] = &member{
		id: id, addr: addr,
		state: NodeAlive, ready: true,
		joined: now, lastSeen: now,
	}
	g.ring.Add(id)
	return nil
}

// get returns a member or nil.
func (g *Registry) get(id string) *member { return g.members[id] }

// markDead takes a node off the ring. Its jobs are the caller's to
// migrate.
func (g *Registry) markDead(id string) {
	if m, ok := g.members[id]; ok {
		m.state = NodeDead
		m.ready = false
		g.ring.Remove(id)
	}
}

// placeable reports whether a member may receive new work.
func (m *member) placeable() bool { return m.state == NodeAlive && m.ready }

// Views snapshots the membership table in sorted ID order (dead members
// included — the fleet status page shows the whole history).
func (g *Registry) Views() []NodeView {
	views := make([]NodeView, 0, len(g.members))
	for _, id := range farm.SortedKeys(g.members) {
		m := g.members[id]
		views = append(views, NodeView{
			ID: m.id, Addr: m.addr, State: m.state, Ready: m.ready,
			Load: m.load, MissedProbes: m.missed,
			JoinedAt: m.joined, LastSeen: m.lastSeen,
		})
	}
	return views
}
