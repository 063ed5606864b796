package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"dedupsim/internal/durable"
	"dedupsim/internal/farm"
	"dedupsim/internal/lru"
	"dedupsim/internal/obs"
	"dedupsim/internal/tenant"
)

// RouterConfig sizes the router tier.
type RouterConfig struct {
	// HeartbeatEvery is the node-probe period (default 1s). The probe
	// carries liveness and replication (checkpoint pulls, artifacts);
	// job completion does not wait for it, since every placed job is
	// long-polled on its node.
	HeartbeatEvery time.Duration
	// DeadAfter is how many consecutive missed probes kill a node
	// (default 3). Between the first miss and death a node is "suspect":
	// no new placements, no migration yet.
	DeadAfter int
	// ProbeTimeout bounds each HTTP call to a node (default 2s); a
	// completion watcher's long poll waits half of it.
	ProbeTimeout time.Duration
	// MaxJobs bounds the router's fleet-job table, counting non-terminal
	// jobs (default 4096); beyond it Submit sheds with ErrFleetBusy.
	MaxJobs int
	// Logf, when non-nil, receives router event logs (registrations,
	// deaths, migrations).
	Logf func(format string, args ...any)

	// DataDir, when set, makes the router crash-safe: node registrations
	// and every fleet job's placement lifecycle are journaled to a
	// write-ahead log under DataDir, and replicated checkpoints and
	// artifacts are persisted there too. A restarted router replays the
	// journal, re-adopts still-live nodes, and resumes migration duty for
	// jobs orphaned while it was down. Empty means in-memory only (the
	// pre-durability behaviour).
	DataDir string
	// Fsync is the journal durability policy (durable.FsyncAlways /
	// FsyncInterval / FsyncNone; default FsyncInterval). Only meaningful
	// with DataDir.
	Fsync durable.FsyncPolicy
	// FsyncInterval is the flush period under FsyncInterval (default
	// 100ms).
	FsyncInterval time.Duration

	// RouterID names this router in a multi-router deployment. It
	// prefixes fleet job IDs ("<RouterID>-fj-N") so two routers fronting
	// one node set never mint colliding IDs, and it feeds the migration
	// ownership rule. Empty (single-router) keeps plain "fj-N" IDs.
	RouterID string
	// Peers lists the other routers' base URLs. When non-empty the
	// heartbeat loop also pulls each peer's placement delta
	// (GET /fleet/placements) so every router tracks every fleet job, and
	// orphan migration is restricted to the lowest live RouterID — two
	// routers never double-migrate the same dead node's jobs.
	Peers []string

	// Tenants is the fleet-wide QoS registry: per-tenant admission
	// buckets enforced at the front door, so spilling a job to another
	// node can never launder quota a tenant has already exhausted. Nil
	// gets a default registry (every tenant unlimited, weight 1). In a
	// fleet deployment put the tenant config here — node-local buckets
	// see only their share of the traffic.
	Tenants *tenant.Registry
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.Tenants == nil {
		c.Tenants = tenant.NewRegistry(tenant.Config{})
	}
	return c
}

// Fixed bounds, like the design store's: the two caches only matter to a
// router fed an endless stream of distinct designs, and the migration log
// keeps just the recent events /statusz shows.
const (
	// maxArtifacts bounds the in-memory replicated-artifact cache (LRU).
	// With DataDir set, evicted artifacts remain on disk and are reloaded
	// on demand; without it they are re-replicated from nodes.
	maxArtifacts = 128
	// maxRouteKeys bounds the design→route-key memo (LRU).
	maxRouteKeys = 4096
	// maxMigrationLog bounds the retained migration event log
	// (drop-oldest).
	maxMigrationLog = 64
)

// ErrNoNodes reports a submit with no placeable node in the fleet.
var ErrNoNodes = errors.New("cluster: no alive, ready nodes")

// ErrFleetBusy reports the router's own admission bound.
var ErrFleetBusy = errors.New("cluster: fleet job table full")

// statusError carries a worker's HTTP rejection through to the client
// unchanged (notably 429 + Retry-After).
type statusError struct {
	code       int
	retryAfter string
	body       []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("node rejected job: HTTP %d: %s", e.code, bytes.TrimSpace(e.body))
}

// fleetJob is one job the router has placed somewhere, tracked for its
// whole life so it can be re-placed if its owner dies.
type fleetJob struct {
	id       string // fleet-wide "fj-N"
	spec     farm.JobSpec
	routeKey string // StructuralHash "/" variant
	node     string // current owner
	remoteID string // the owner's job ID for it
	view     farm.JobView
	terminal bool
	// watched is the placement the job's last completion watcher was
	// started for; ensureWatchLocked starts one only when it differs
	// from the current placement.
	watched placement

	// checkpoint is the newest snapshot pulled from the owner while it
	// was alive — migration insurance, since a dead node cannot be asked
	// for anything. ckptCycle mirrors view.CheckpointCycle at pull time.
	checkpoint []byte
	ckptCycle  int64

	migrations int
	// orphaned marks a job whose owner died before it finished; the
	// heartbeat loop re-places it (with the checkpoint attached) until a
	// forward succeeds.
	orphaned bool

	// rev counts placement-relevant mutations (place, orphan, migrate,
	// finish). Peer routers merge a synced job only when its rev is
	// higher than their copy's — last-writer-wins per job.
	rev int64
	// seq is the router-local sequence number of the job's last mutation;
	// the /fleet/placements delta sends jobs with seq > the peer's
	// high-water mark.
	seq int64

	// created stamps router admission; the fleet end-to-end histogram
	// measures from here to the router learning the terminal state.
	created time.Time
	// trace is the router-side lifecycle trace. It shares the job's
	// TraceID with the worker-side trace; the /jobs/{id}/trace handler
	// merges both onto one timeline.
	trace *obs.Trace
}

// FleetJobView is a fleet job as served by the router API: the owner's
// latest JobView under the fleet ID, plus placement metadata.
type FleetJobView struct {
	farm.JobView
	Node string `json:"node"`
	// RemoteID is the job's ID on its current owner node.
	RemoteID string `json:"remote_id,omitempty"`
	// Migrations counts re-placements after node deaths.
	Migrations int `json:"migrations,omitempty"`
	// Orphaned marks a job awaiting re-placement (owner died, no
	// successor accepted it yet).
	Orphaned bool `json:"orphaned,omitempty"`
}

// Router is the fleet's front door: it registers worker nodes, probes
// their health, places every submitted job by consistent-hashing its
// StructuralHash×variant (so same-design jobs meet where the Program is
// already compiled and batches fill), spills from overloaded owners,
// replicates compile artifacts and checkpoints off the nodes, and
// re-places unfinished jobs when a node dies.
type Router struct {
	cfg    RouterConfig
	client *http.Client

	mu       sync.Mutex
	registry *Registry
	jobs     map[string]*fleetJob
	order    []string // fleet job IDs in admission order
	nextID   int64
	// routeKeys memoizes design content key → structural hash:
	// elaborating a design to hash it is cheap next to compiling, but not
	// free, and fleets see the same few designs over and over. Keyed by
	// the fixed-size DesignSpec.Key, so the memo never pins FIRRTL text.
	// Bounded (maxRouteKeys, LRU); an evicted key is simply recomputed.
	routeKeys *lru.Cache[farm.DesignKey, string]
	// artifacts is the router's replicated artifact store: encoded
	// compile artifacts pulled from nodes during heartbeats, served back
	// to cold peers (and used to warm a migration target) even after the
	// origin node died. The in-memory tier is bounded (maxArtifacts,
	// LRU); with a store, evicted entries stay on disk and reload on
	// demand.
	artifacts *lru.Cache[string, []byte]

	// store is the durable tier (nil without DataDir): the placement
	// journal plus persisted checkpoints and artifacts.
	store *durable.Store
	// recovery reports what the last OpenRouter replayed (nil for a
	// fresh or in-memory router).
	recovery *RouterRecoveryStats

	// HA state (single-router deployments leave all of this idle).
	routerID string
	// seq is the router-local mutation sequence; bumped only on
	// placement-relevant changes so peer delta pulls stay quiet on an
	// idle fleet.
	seq   int64
	peers []*peerState

	// counters
	forwarded     int64 // jobs placed on a node (spills included)
	spilled       int64 // jobs placed off their key's primary owner
	failovers     int64 // placements that skipped an unreachable candidate
	migrations    int64 // jobs re-placed off dead nodes
	ckptsPulled   int64 // checkpoints replicated off nodes
	artsPulled    int64 // artifacts replicated off nodes
	artsServed    int64 // artifact fetches served to nodes
	artsDiskHits  int64 // artifact serves satisfied from the disk tier
	deaths        int64 // nodes declared dead
	jobsAdopted   int64 // fleet jobs learned from peer routers
	peerSyncs     int64 // successful peer delta pulls
	peerSyncFails int64 // failed peer delta pulls
	migrationLogs *ringLog

	// obs holds the router's latency histograms.
	obs routerObs

	// changed is closed and replaced under mu on every terminal
	// transition; WaitDone sleeps on it.
	changed chan struct{}
	// Completion watchers (watch.go): watchCtx cancels their long polls,
	// watchers counts them for Close and Kill, watching is the same
	// count readable under mu, and closing refuses new ones.
	watchCtx  context.Context
	stopWatch context.CancelFunc
	watchers  sync.WaitGroup
	watching  int
	closing   bool
	// appends counts placement-journal appends attempted.
	appends int64

	stop    chan struct{}
	stopped chan struct{}
}

// NewRouter starts an in-memory router and its heartbeat prober. For a
// crash-safe router (DataDir set) use OpenRouter, which can fail;
// NewRouter panics on a durable-open error so existing in-memory
// callers keep their error-free constructor.
func NewRouter(cfg RouterConfig) *Router {
	r, err := OpenRouter(cfg)
	if err != nil {
		panic(fmt.Sprintf("cluster: NewRouter: %v", err))
	}
	return r
}

// OpenRouter starts a router and its heartbeat prober. With
// cfg.DataDir set it opens the placement journal, replays it (torn
// tails tolerated, per the WAL contract), probes journaled nodes to
// re-adopt the still-live ones, re-tracks unfinished fleet jobs with
// their persisted checkpoints, reloads replicated artifacts, and
// compacts the journal — then resumes normal duty, including migrating
// jobs whose owner died while the router was down.
func OpenRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:           cfg,
		client:        &http.Client{Timeout: cfg.ProbeTimeout},
		registry:      NewRegistry(),
		jobs:          map[string]*fleetJob{},
		routeKeys:     lru.New[farm.DesignKey, string](maxRouteKeys),
		artifacts:     lru.New[string, []byte](maxArtifacts),
		routerID:      cfg.RouterID,
		migrationLogs: newRingLog(maxMigrationLog),
		changed:       make(chan struct{}),
		stop:          make(chan struct{}),
		stopped:       make(chan struct{}),
	}
	r.watchCtx, r.stopWatch = context.WithCancel(context.Background())
	for _, addr := range cfg.Peers {
		r.peers = append(r.peers, &peerState{addr: addr})
	}
	if cfg.DataDir != "" {
		store, err := durable.OpenRouterStore(durable.Options{
			Dir:           cfg.DataDir,
			Fsync:         cfg.Fsync,
			FsyncInterval: cfg.FsyncInterval,
		})
		if err != nil {
			return nil, err
		}
		r.store = store
		if err := r.recoverFromStore(); err != nil {
			store.Close()
			return nil, err
		}
	}
	r.mu.Lock()
	r.watchAllLocked()
	r.mu.Unlock()
	go r.heartbeatLoop()
	return r, nil
}

// Close stops the heartbeat prober and the completion watchers and,
// for a durable router, shuts the store down cleanly: the journal is
// compacted to live state and frozen (flushed, fsynced) rather than
// abandoned, so a restart after Close replays only current state —
// zero records when the fleet was quiescent. Worker nodes are left
// running — the router owns placement, not node lifecycles.
func (r *Router) Close() {
	r.stopLoops()
	if r.store != nil {
		// The heartbeat and the watchers are stopped, so neither appends
		// during the compaction.
		if err := r.compactJournal(); err != nil {
			r.logf("cluster: router close: compact: %v", err)
		}
		r.store.Freeze()
		r.store.Close()
	}
}

// Kill tears the router down the way a crash would: loops stop, but
// the store is abandoned — no compaction, no final flush beyond what
// the fsync policy already guaranteed. Tests use it to exercise
// recovery; production crashes get the same on-disk state for free.
func (r *Router) Kill() {
	r.stopLoops()
	if r.store != nil {
		r.store.Abandon()
		r.store.Close()
	}
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Register admits a worker node (see Registry.Register for the
// duplicate-ID rules).
func (r *Router) Register(id, addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.registry.Register(id, addr, time.Now()); err != nil {
		return err
	}
	r.journalLocked(durable.Record{Type: durable.RecNode, Node: id, Addr: addr})
	r.logf("cluster: node %s registered at %s", id, addr)
	return nil
}

// Nodes snapshots the membership table.
func (r *Router) Nodes() []NodeView {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registry.Views()
}

// routeKey computes (memoized) the placement key for a spec: the
// design's structural hash × variant. Jobs that would share a compiled
// Program — and could share a batch engine — get the same key, which is
// the whole point: cache affinity is placement policy.
func (r *Router) routeKey(spec farm.JobSpec) (string, error) {
	designKey := spec.Key()
	r.mu.Lock()
	hash, ok := r.routeKeys.Get(designKey)
	r.mu.Unlock()
	if !ok {
		c, err := spec.Build()
		if err != nil {
			return "", err
		}
		hash = c.StructuralHash().String()
		r.mu.Lock()
		r.routeKeys.Put(designKey, hash)
		r.mu.Unlock()
	}
	return hash + "/" + spec.Variant, nil
}

// mintIDLocked names the next fleet job. Single-router deployments
// keep the historical "fj-N"; with a RouterID the ID is namespaced so
// two routers fronting one node set never collide.
func (r *Router) mintIDLocked() string {
	r.nextID++
	if r.routerID == "" {
		return fmt.Sprintf("fj-%d", r.nextID)
	}
	return fmt.Sprintf("%s-fj-%d", r.routerID, r.nextID)
}

// loadFactor is the bounded-load spill threshold: a key's primary owner
// is skipped when its router-tracked load reaches
// ceil(loadFactor * (jobs+1) / nodes). 1.25 is the classic
// consistent-hashing-with-bounded-loads constant.
const loadFactor = 1.25

// placeLocked picks the owner for key under bounded load: walk the
// key's successor chain, take the first placeable node whose load is
// under the threshold; if every placeable node is over (can't happen
// with the ceiling formula, but guard anyway) take the least loaded.
// Returns the candidate list for forwarding fallback: placement order,
// overloaded-but-placeable nodes last.
func (r *Router) placeLocked(key string) []*member {
	g := r.registry
	var placeable []*member
	total := 0
	for _, id := range g.ring.Members() {
		if m := g.get(id); m != nil && m.placeable() {
			placeable = append(placeable, m)
			total += m.load
		}
	}
	if len(placeable) == 0 {
		return nil
	}
	threshold := int(math.Ceil(loadFactor * float64(total+1) / float64(len(placeable))))
	var under, over []*member
	for _, id := range g.ring.Successors(key, g.ring.Len()) {
		m := g.get(id)
		if m == nil || !m.placeable() {
			continue
		}
		if m.load < threshold {
			under = append(under, m)
		} else {
			over = append(over, m)
		}
	}
	return append(under, over...)
}

// Submit routes one job into the fleet: compute its placement key,
// forward it to the chosen node over the plain farm API, and track it
// as a fleet job. A worker HTTP rejection (429 load shed, 400 bad spec)
// is returned as a *statusError so the HTTP layer can relay it — status,
// Retry-After, and body — unchanged; an unreachable candidate is skipped
// (failover) rather than surfaced.
func (r *Router) Submit(ctx context.Context, spec farm.JobSpec) (FleetJobView, error) {
	// The trace ID is minted here, at the fleet's front door, unless the
	// client brought its own via X-Trace-Id. It rides in the spec, so the
	// worker adopts it on forward and it survives migration to a new
	// owner — one ID names the job's whole story across nodes.
	if spec.TraceID == "" {
		spec.TraceID = obs.NewTraceID()
	}
	// Tenant identity is minted here too: the canonical name rides in the
	// spec so workers, the placement journal, and any migration target all
	// agree on who the job belongs to. The fleet-wide admission bucket is
	// charged before placement — a tenant over its rate gets its own 429 +
	// Retry-After without touching a node, and spilling past an overloaded
	// primary can never launder quota.
	tname, terr := tenant.Normalize(spec.Tenant)
	if terr != nil {
		return FleetJobView{}, &statusError{code: http.StatusBadRequest, body: []byte(terr.Error())}
	}
	spec.Tenant = tname
	if ra, ok := r.cfg.Tenants.Admit(spec.Tenant); !ok {
		return FleetJobView{}, &statusError{
			code:       http.StatusTooManyRequests,
			retryAfter: retryAfterHeader(ra),
			body:       []byte(fmt.Sprintf("cluster: tenant %q over submission rate", spec.Tenant)),
		}
	}
	tr := obs.NewTrace(spec.TraceID, "")
	tr.Instant("submitted")

	key, err := r.routeKey(spec)
	if err != nil {
		return FleetJobView{}, &statusError{code: http.StatusBadRequest, body: []byte(err.Error())}
	}

	r.mu.Lock()
	live := 0
	for _, fj := range r.jobs {
		if !fj.terminal {
			live++
		}
	}
	if live >= r.cfg.MaxJobs {
		r.mu.Unlock()
		r.cfg.Tenants.NoteShed(spec.Tenant)
		return FleetJobView{}, ErrFleetBusy
	}
	candidates := r.placeLocked(key)
	primary := r.registry.ring.Owner(key)
	r.mu.Unlock()
	if len(candidates) == 0 {
		return FleetJobView{}, ErrNoNodes
	}

	var firstReject *statusError
	for _, m := range candidates {
		fstart := time.Now()
		view, ferr := r.forwardSubmit(ctx, m.addr, spec)
		if ferr != nil {
			var se *statusError
			if errors.As(ferr, &se) {
				// The node answered and said no. 429 means "overloaded
				// right now" — try the next candidate, but remember the
				// rejection so a fully saturated fleet relays it verbatim.
				if se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable {
					if firstReject == nil {
						firstReject = se
					}
					continue
				}
				// Any other rejection (bad spec) is deterministic: every
				// node would say the same, so relay it now.
				return FleetJobView{}, se
			}
			// Network error: candidate unreachable, fail over. The
			// heartbeat prober will notice and kill it properly.
			r.mu.Lock()
			r.failovers++
			r.mu.Unlock()
			tr.Instant("failover", "node", m.id)
			continue
		}
		r.obs.forward.Observe(time.Since(fstart))
		tr.Span("forward", fstart, time.Since(fstart), "node", m.id)

		r.mu.Lock()
		fj := &fleetJob{
			id:       r.mintIDLocked(),
			spec:     spec,
			routeKey: key,
			node:     m.id,
			remoteID: view.ID,
			view:     view,
			created:  time.Now(),
			trace:    tr,
			rev:      1,
		}
		fj.seq = r.bumpSeqLocked()
		tr.SetName(fj.id)
		r.jobs[fj.id] = fj
		r.order = append(r.order, fj.id)
		m.load++
		r.forwarded++
		// A job is "spilled" when it lands anywhere but its key's ring
		// owner — whether because the owner was over the bounded-load
		// threshold (placeLocked reordered it away) or rejected/unreachable.
		spill := m.id != primary
		if spill {
			r.spilled++
		}
		r.journalAdmitLocked(fj, spill)
		r.ensureWatchLocked(fj)
		out := r.fleetViewLocked(fj)
		r.mu.Unlock()
		r.cfg.Tenants.NoteSubmitted(spec.Tenant)
		return out, nil
	}
	if firstReject != nil {
		r.cfg.Tenants.NoteShed(spec.Tenant)
		return FleetJobView{}, firstReject
	}
	return FleetJobView{}, ErrNoNodes
}

// retryAfterHeader renders a refill delay as a whole-second Retry-After
// value, rounding up and never below 1.
func retryAfterHeader(d time.Duration) string {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}

// forwardSubmit POSTs a spec to one node's farm API.
func (r *Router) forwardSubmit(ctx context.Context, addr string, spec farm.JobSpec) (farm.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return farm.JobView{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/jobs", bytes.NewReader(body))
	if err != nil {
		return farm.JobView{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spec.TraceID != "" {
		// Belt and braces: the ID already rides in the spec body, but the
		// header keeps propagation working for any intermediary that only
		// looks at headers.
		req.Header.Set("X-Trace-Id", spec.TraceID)
	}
	if spec.Tenant != "" {
		req.Header.Set("X-Tenant", spec.Tenant)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return farm.JobView{}, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusAccepted {
		return farm.JobView{}, &statusError{
			code:       resp.StatusCode,
			retryAfter: resp.Header.Get("Retry-After"),
			body:       data,
		}
	}
	var view farm.JobView
	if err := json.Unmarshal(data, &view); err != nil {
		return farm.JobView{}, fmt.Errorf("cluster: bad job view from %s: %w", addr, err)
	}
	return view, nil
}

// fleetViewLocked renders a fleet job; caller holds r.mu.
func (r *Router) fleetViewLocked(fj *fleetJob) FleetJobView {
	v := FleetJobView{
		JobView:    fj.view,
		Node:       fj.node,
		RemoteID:   fj.remoteID,
		Migrations: fj.migrations,
		Orphaned:   fj.orphaned,
	}
	v.ID = fj.id
	if fj.orphaned {
		// An orphan is queued-from-the-client's-view: it will run again
		// once re-placed, whatever state the dead node last reported.
		v.Status = farm.StatusQueued
	}
	return v
}

// Job returns one fleet job's view.
func (r *Router) Job(id string) (FleetJobView, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fj, ok := r.jobs[id]
	if !ok {
		return FleetJobView{}, false
	}
	return r.fleetViewLocked(fj), true
}

// Jobs lists fleet jobs in admission order.
func (r *Router) Jobs() []FleetJobView {
	r.mu.Lock()
	defer r.mu.Unlock()
	views := make([]FleetJobView, 0, len(r.order))
	for _, id := range r.order {
		views = append(views, r.fleetViewLocked(r.jobs[id]))
	}
	return views
}

// Artifact serves an encoded compile artifact from the router's
// replicated store (the node-side FetchArtifact hook's usual source).
// A miss in the bounded memory cache falls through to the disk tier
// when the router is durable, reinstalling the artifact in memory.
func (r *Router) Artifact(key string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if data, ok := r.artifacts.Get(key); ok {
		r.artsServed++
		return data, true
	}
	if r.store != nil {
		if data, ok := r.store.LoadArtifact(key); ok {
			r.artifacts.Put(key, data)
			r.artsServed++
			r.artsDiskHits++
			return data, true
		}
	}
	return nil, false
}

// WaitDone blocks until the fleet job reaches a terminal state or ctx
// expires. It sleeps on the router's changed channel, which every
// terminal transition closes, so it wakes as soon as a watcher (or a
// peer merge) records the finish.
func (r *Router) WaitDone(ctx context.Context, id string) (FleetJobView, error) {
	for {
		r.mu.Lock()
		fj, ok := r.jobs[id]
		if !ok {
			r.mu.Unlock()
			return FleetJobView{}, fmt.Errorf("cluster: no fleet job %q", id)
		}
		v, changed := r.fleetViewLocked(fj), r.changed
		r.mu.Unlock()
		if v.Status.Terminal() && !v.Orphaned {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-changed:
		}
	}
}
