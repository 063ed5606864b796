package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dedupsim/internal/durable"
	"dedupsim/internal/farm"
	"dedupsim/internal/faultinject"
	"dedupsim/internal/obs"
)

// switchableHandler lets a test kill and restart a router behind one
// stable URL: the listener stays up (workers keep dialing the same
// address for artifact fetches) while the router behind it is swapped —
// or replaced with a 503 to emulate the process being gone.
type switchableHandler struct {
	h atomic.Pointer[http.Handler]
}

func newSwitchableHandler() *switchableHandler {
	s := &switchableHandler{}
	s.down()
	return s
}

func (s *switchableHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	(*s.h.Load()).ServeHTTP(w, req)
}

func (s *switchableHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *switchableHandler) down() {
	s.set(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, "router down", http.StatusServiceUnavailable)
	}))
}

// TestRouterKillRestartChaos is the router-durability acceptance run:
// the router is SIGKILL-emulated (store abandoned, no graceful
// shutdown) while jobs are mid-flight, a worker node is killed while
// the router is down, and a fresh router process recovers from the
// same -data-dir. Zero jobs may be lost, every result must stay
// bit-exact against a crash-free single-node reference, the jobs
// orphaned by the dead worker must migrate exactly once, and the
// recovery metrics must report the replay.
func TestRouterKillRestartChaos(t *testing.T) {
	// Crash-free reference for bit-exactness.
	specs := []farm.JobSpec{clusterSpec("Rocket-2C", 2000, 50)}
	floodStart := len(specs)
	for s := 1; s <= 5; s++ {
		specs = append(specs, clusterSpec("Rocket-2C", 12288, uint64(s)))
	}
	ref := farm.New(farm.Config{Workers: 2})
	defer ref.Close()
	wants := make([]*farm.SimStats, len(specs))
	for i, spec := range specs {
		j, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		v, err := ref.WaitJob(ctx, j.ID)
		cancel()
		if err != nil || v.Status != farm.StatusDone {
			t.Fatalf("reference job %d: %v (%+v)", i, err, v)
		}
		wants[i] = v.Stats
	}

	dataDir := t.TempDir()
	cfg := RouterConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		DeadAfter:      2,
		ProbeTimeout:   500 * time.Millisecond,
		DataDir:        dataDir,
		// Acknowledged = durable: what the journal said happened must be
		// exactly what recovery sees, even at a kill with no final flush.
		Fsync: durable.FsyncAlways,
		Logf:  t.Logf,
	}
	front := newSwitchableHandler()
	ts := httptest.NewServer(front)
	defer ts.Close()

	r1, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("open router: %v", err)
	}
	front.set(Handler(r1))

	nodes := map[string]*testNode{}
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("n%d", i)
		faults := faultinject.New(faultinject.Config{
			Seed:  uint64(i),
			Rates: map[faultinject.Point]float64{faultinject.StepStall: 0.01},
			Stall: 5 * time.Millisecond,
		})
		nodes[id] = startNode(t, r1, ts.URL, id, farm.Config{
			Workers:         2,
			CheckpointEvery: 512,
			Faults:          faults,
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	// Seed job: pays the compile and lets the artifact replicate into the
	// router's (now persistent) store before the flood.
	fleetIDs := make([]string, len(specs))
	for i := 0; i < floodStart; i++ {
		v, serr := r1.Submit(ctx, specs[i])
		if serr != nil {
			t.Fatalf("seed submit %d: %v", i, serr)
		}
		fleetIDs[i] = v.ID
		if w, werr := r1.WaitDone(ctx, v.ID); werr != nil || w.Status != farm.StatusDone {
			t.Fatalf("seed job %d: %v (%+v)", i, werr, w)
		}
	}
	waitFor(t, 15*time.Second, "artifact replication to the router", func() bool {
		return r1.Stats().ArtifactsReplicated >= 1
	})

	for i := floodStart; i < len(specs); i++ {
		v, serr := r1.Submit(ctx, specs[i])
		if serr != nil {
			t.Fatalf("flood submit %d: %v", i, serr)
		}
		fleetIDs[i] = v.ID
	}

	// Kill gate: some job mid-flight with a pulled (hence journaled +
	// persisted) checkpoint and meaningful work left. Its owner is the
	// worker we kill while the router is down.
	var victim string
	waitFor(t, 60*time.Second, "a mid-flight job with a pulled checkpoint", func() bool {
		r1.mu.Lock()
		defer r1.mu.Unlock()
		for _, fj := range r1.jobs {
			if !fj.terminal && !fj.orphaned &&
				fj.ckptCycle >= 512 && fj.ckptCycle <= int64(fj.spec.Cycles)-4096 {
				victim = fj.node
				return true
			}
		}
		return false
	})

	// SIGKILL the router: loops stop, the store is abandoned un-flushed
	// and un-compacted, the front end answers 503. Workers keep running
	// their jobs; they do not need the router to make progress.
	t.Logf("killing router mid-flight, then node %s while the router is down", victim)
	front.down()
	r1.Kill()

	// Jobs already terminal at the crash: their results were delivered
	// pre-crash; the restarted router re-tracks them as tombstones (and
	// must not re-run them). Snapshot the delivered views to validate
	// against.
	preKill := map[string]FleetJobView{}
	for _, id := range fleetIDs {
		if v, ok := r1.Job(id); ok && v.Status.Terminal() && !v.Orphaned {
			preKill[id] = v
		}
	}

	// With the router dead, kill a worker that owns unfinished jobs. No
	// process is left that saw it happen — only the journal knows where
	// those jobs were placed.
	nodes[victim].kill()
	time.Sleep(50 * time.Millisecond)

	// Restart from the data dir. Recovery must replay the placements,
	// re-adopt the two surviving nodes, notice the victim is gone, and
	// migrate its jobs off the persisted checkpoints.
	r2, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("reopen router: %v", err)
	}
	defer r2.Kill()
	front.set(Handler(r2))

	rec := r2.RecoveryStats()
	if rec == nil {
		t.Fatal("restarted router reports no recovery stats")
	}
	if rec.PlacementsReplayed == 0 {
		t.Error("placements_replayed = 0 after a dirty kill, want > 0")
	}
	if rec.NodesReadopted != 2 {
		t.Errorf("nodes_readopted = %d, want the 2 surviving workers", rec.NodesReadopted)
	}
	if rec.NodesLostWhileDown != 1 {
		t.Errorf("nodes_lost_while_down = %d, want 1 (the worker killed during the outage)", rec.NodesLostWhileDown)
	}
	if rec.JobsRecovered == 0 {
		t.Error("jobs_recovered = 0, want the in-flight flood re-tracked")
	}
	if rec.ArtifactsReloaded < 1 {
		t.Errorf("artifacts_reloaded = %d, want >= 1 (replicated artifact persisted)", rec.ArtifactsReloaded)
	}

	// Zero lost jobs: every fleet ID submitted before the crash resolves
	// at the restarted router, bit-exact against the reference. Jobs that
	// finished pre-crash must survive as queryable terminal tombstones
	// (validated against the view delivered before the kill); everything
	// else must run to completion.
	for i, id := range fleetIDs {
		if pv, done := preKill[id]; done {
			v, ok := r2.Job(id)
			if !ok {
				t.Fatalf("job %s finished pre-crash but the restarted router dropped it", id)
			}
			if v.Status != farm.StatusDone {
				t.Fatalf("pre-crash-finished job %s is %q after restart, want done", id, v.Status)
			}
			sameResults(t, fmt.Sprintf("job %s (seed %d, pre-crash)", id, specs[i].Seed), pv.Stats, wants[i])
			continue
		}
		v, werr := r2.WaitDone(ctx, id)
		if werr != nil || v.Status != farm.StatusDone {
			t.Fatalf("job %s (spec %d) after restart: %v (%+v)", id, i, werr, v)
		}
		sameResults(t, fmt.Sprintf("job %s (seed %d)", id, specs[i].Seed), v.Stats, wants[i])
	}

	waitFor(t, 15*time.Second, "post-recovery fleet stats to settle", func() bool {
		st := r2.Stats()
		return st.Migrations >= 1 && st.CyclesSavedByResume > 0
	})
	st := r2.Stats()
	if st.Migrations < 1 {
		t.Error("no jobs migrated off the node that died during the outage")
	}
	if st.CyclesSavedByResume <= 0 {
		t.Errorf("cycles_saved_by_resume = %d, want > 0: recovery lost the persisted checkpoints", st.CyclesSavedByResume)
	}

	// Exactly-once migration: no recovered job may have been re-placed
	// twice — the journal fold plus the single live router make each
	// orphan's migration unique.
	r2.mu.Lock()
	migratedJobs := 0
	for id, fj := range r2.jobs {
		if fj.migrations > 1 {
			t.Errorf("job %s migrated %d times, want at most once", id, fj.migrations)
		}
		if fj.migrations == 1 {
			migratedJobs++
		}
	}
	r2.mu.Unlock()
	if int64(migratedJobs) != st.Migrations {
		t.Errorf("%d jobs carry a migration but the router counted %d: some job migrated more than once",
			migratedJobs, st.Migrations)
	}

	// The recovery metrics ride the standard exposition, and the page
	// still lints clean.
	rr := httptest.NewRecorder()
	if err := r2.WriteProm(rr); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	page := rr.Body.Bytes()
	for _, want := range []string{
		"dedupfleet_recovery_placements_replayed",
		"dedupfleet_recovery_nodes_readopted",
		"dedupfleet_recovery_jobs_recovered",
		"dedupfleet_recovery_artifacts_reloaded",
		"dedupfleet_recovery_millis",
	} {
		if !bytes.Contains(page, []byte(want)) {
			t.Errorf("/metrics missing %s after recovery", want)
		}
	}
	if errs := obs.LintProm(page); len(errs) > 0 {
		t.Errorf("restarted router /metrics fails lint: %v", errs)
	}

	var buf bytes.Buffer
	r2.WriteStatus(&buf)
	status := buf.String()
	if !strings.Contains(status, "recovery:") {
		t.Errorf("/statusz does not report the recovery:\n%s", status)
	}
	if !strings.Contains(status, "recent_migrations") || !strings.Contains(status, "migrated") {
		t.Errorf("/statusz does not report the post-recovery migration:\n%s", status)
	}
}

// TestRouterCloseCleanRestart pins the clean-shutdown contract: Close
// freezes (not abandons) the journal after compacting it to live
// state, so a restart of a quiescent router replays zero job records,
// re-adopts its nodes from the compacted membership, and re-serves the
// persisted artifacts.
func TestRouterCloseCleanRestart(t *testing.T) {
	dataDir := t.TempDir()
	cfg := RouterConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		ProbeTimeout:   time.Second,
		DataDir:        dataDir,
		Fsync:          durable.FsyncAlways,
		Logf:           t.Logf,
	}
	r1, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("open router: %v", err)
	}
	ts := httptest.NewServer(Handler(r1))
	defer ts.Close()
	startNode(t, r1, ts.URL, "n1", farm.Config{Workers: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for seed := uint64(1); seed <= 2; seed++ {
		v, serr := r1.Submit(ctx, clusterSpec("Rocket-2C", 1000, seed))
		if serr != nil {
			t.Fatalf("submit: %v", serr)
		}
		if w, werr := r1.WaitDone(ctx, v.ID); werr != nil || w.Status != farm.StatusDone {
			t.Fatalf("job: %v (%+v)", werr, w)
		}
	}
	waitFor(t, 15*time.Second, "artifact replication", func() bool {
		return r1.Stats().ArtifactsReplicated >= 1
	})
	r1.Close()

	r2, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	defer r2.Close()
	rec := r2.RecoveryStats()
	if rec == nil {
		t.Fatal("no recovery stats after reopen")
	}
	if rec.PlacementsReplayed != 0 || rec.JobsRecovered != 0 {
		t.Errorf("clean restart replayed %d placement records, %d jobs; want 0, 0 (Close compacts terminal history away)",
			rec.PlacementsReplayed, rec.JobsRecovered)
	}
	if rec.JournalBytesDropped != 0 {
		t.Errorf("clean restart dropped %d journal bytes, want a frozen, whole journal", rec.JournalBytesDropped)
	}
	if rec.NodesReadopted != 1 {
		t.Errorf("nodes_readopted = %d, want the still-running worker", rec.NodesReadopted)
	}
	if rec.ArtifactsReloaded < 1 {
		t.Errorf("artifacts_reloaded = %d, want >= 1", rec.ArtifactsReloaded)
	}
	if _, ok := r2.Artifact(firstArtifactKey(r2)); !ok {
		t.Error("restarted router cannot serve its persisted artifact")
	}
}

// firstArtifactKey returns any key of the router's persisted artifacts.
func firstArtifactKey(r *Router) string {
	for _, k := range r.store.Artifacts() {
		return k
	}
	return ""
}

// TestClusterTwoRouters runs the HA topology: two routers front one
// node set, each pulling the other's placement delta. Placements must
// converge (either router can serve any job), a worker death must be
// migrated by exactly one router (the lowest live router ID), and
// killing a router must lose no jobs — the survivor finishes the lot.
func TestClusterTwoRouters(t *testing.T) {
	frontA, frontB := newSwitchableHandler(), newSwitchableHandler()
	tsA, tsB := httptest.NewServer(frontA), httptest.NewServer(frontB)
	defer tsA.Close()
	defer tsB.Close()

	mk := func(id, peer string) *Router {
		r, err := OpenRouter(RouterConfig{
			RouterID:       id,
			Peers:          []string{peer},
			HeartbeatEvery: 20 * time.Millisecond,
			DeadAfter:      2,
			ProbeTimeout:   500 * time.Millisecond,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("open router %s: %v", id, err)
		}
		return r
	}
	ra := mk("ra", tsB.URL)
	rb := mk("rb", tsA.URL)
	defer ra.Close()
	defer rb.Close()
	frontA.set(Handler(ra))
	frontB.set(Handler(rb))

	// Workers join router A only; B must learn the membership through
	// peer sync and start probing the nodes itself.
	nodes := map[string]*testNode{}
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("n%d", i)
		faults := faultinject.New(faultinject.Config{
			Seed:  uint64(i),
			Rates: map[faultinject.Point]float64{faultinject.StepStall: 0.01},
			Stall: 5 * time.Millisecond,
		})
		nodes[id] = startNode(t, ra, tsA.URL, id, farm.Config{
			Workers:         2,
			CheckpointEvery: 512,
			Faults:          faults,
		})
	}
	waitFor(t, 15*time.Second, "router B to adopt the node set", func() bool {
		alive := 0
		for _, n := range rb.Nodes() {
			if n.State == NodeAlive {
				alive++
			}
		}
		return alive == 3
	})

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	// Seed through A, then flood through BOTH routers: one node set,
	// two front doors.
	seed, err := ra.Submit(ctx, clusterSpec("Rocket-2C", 2000, 50))
	if err != nil {
		t.Fatalf("seed submit: %v", err)
	}
	if w, werr := ra.WaitDone(ctx, seed.ID); werr != nil || w.Status != farm.StatusDone {
		t.Fatalf("seed job: %v (%+v)", werr, w)
	}

	var fleetIDs []string
	for s := 1; s <= 6; s++ {
		router := ra
		if s%2 == 0 {
			router = rb
		}
		v, serr := router.Submit(ctx, clusterSpec("Rocket-2C", 12288, uint64(s)))
		if serr != nil {
			t.Fatalf("flood submit %d: %v", s, serr)
		}
		fleetIDs = append(fleetIDs, v.ID)
	}

	// Convergence: every job — wherever submitted — is visible at both
	// routers, with matching placements.
	waitFor(t, 20*time.Second, "placements to converge on both routers", func() bool {
		for _, id := range fleetIDs {
			va, oka := ra.Job(id)
			vb, okb := rb.Job(id)
			if !oka || !okb || va.Node != vb.Node {
				return false
			}
		}
		return true
	})

	// Kill a worker that owns unfinished jobs. Both routers see the
	// death; only the lowest live router ID ("ra") may migrate.
	var victim string
	waitFor(t, 60*time.Second, "a mid-flight job with a pulled checkpoint", func() bool {
		ra.mu.Lock()
		defer ra.mu.Unlock()
		for _, fj := range ra.jobs {
			if !fj.terminal && !fj.orphaned &&
				fj.ckptCycle >= 512 && fj.ckptCycle <= int64(fj.spec.Cycles)-4096 {
				victim = fj.node
				return true
			}
		}
		return false
	})
	t.Logf("killing node %s with both routers live", victim)
	nodes[victim].kill()

	waitFor(t, 30*time.Second, "the victim's jobs to migrate", func() bool {
		return ra.Stats().Migrations >= 1
	})
	if got := rb.Stats().Migrations; got != 0 {
		t.Errorf("router rb migrated %d jobs while ra (lower ID) was live: double migration", got)
	}

	// Kill router B. The survivor owns everything: every job, B-minted
	// ones included, must finish at A.
	frontB.down()
	rb.Kill()
	t.Log("killed router rb; awaiting all jobs at ra")

	for _, id := range fleetIDs {
		v, werr := ra.WaitDone(ctx, id)
		if werr != nil || v.Status != farm.StatusDone {
			t.Fatalf("job %s after router death: %v (%+v)", id, werr, v)
		}
	}

	st := ra.Stats()
	if st.JobsAdopted < 1 {
		t.Errorf("jobs_adopted = %d, want >= 1 (rb submitted half the flood)", st.JobsAdopted)
	}
	if st.PeerSyncs < 1 {
		t.Errorf("peer_syncs = %d, want > 0", st.PeerSyncs)
	}
	adopted := 0
	for _, id := range fleetIDs {
		if strings.HasPrefix(id, "rb-") {
			adopted++
		}
	}
	if adopted == 0 {
		t.Error("no fleet IDs carry the rb- namespace; both routers minted from one counter?")
	}

	var buf bytes.Buffer
	ra.WriteStatus(&buf)
	if !strings.Contains(buf.String(), "peer: router rb") {
		t.Errorf("/statusz does not report the peer router:\n%s", buf.String())
	}
}

// TestRouterRecoversPlacementJournal replays a placement journal holding
// every record type and checks the folded state. n2 died before the
// restart, and n1 does not answer the recovery probe. So both unfinished
// jobs orphan: fj-1 where it was placed and fj-2 after its one migration.
// fj-3 is a finished tombstone.
func TestRouterRecoversPlacementJournal(t *testing.T) {
	dataDir := t.TempDir()
	store, err := durable.OpenRouterStore(durable.Options{Dir: dataDir, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	spec := json.RawMessage(`{"design":"Rocket-2C","scale":0.1,"cycles":2000}`)
	for _, rec := range []durable.Record{
		{Type: durable.RecNode, Node: "n1", Addr: "http://127.0.0.1:1"},
		{Type: durable.RecNode, Node: "n2", Addr: "http://127.0.0.1:2"},
		{Type: durable.RecAdmit, Job: "fj-1", Spec: spec, Key: "k1"},
		{Type: durable.RecPlace, Job: "fj-1", Node: "n1", Remote: "job-1"},
		{Type: durable.RecAdmit, Job: "fj-2", Spec: spec, Key: "k1"},
		{Type: durable.RecPlace, Job: "fj-2", Node: "n2", Remote: "job-1", Spilled: true},
		{Type: durable.RecNodeDead, Node: "n2"},
		{Type: durable.RecOrphan, Job: "fj-2", Node: "n2"},
		{Type: durable.RecMigrate, Job: "fj-2", Node: "n1", From: "n2", Remote: "job-2", Cycle: 512},
		{Type: durable.RecAdmit, Job: "fj-3", Spec: spec, Key: "k1"},
		{Type: durable.RecPlace, Job: "fj-3", Node: "n1", Remote: "job-3"},
		{Type: durable.RecFinish, Job: "fj-3", Status: "done"},
	} {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenRouter(RouterConfig{
		HeartbeatEvery: time.Hour,
		ProbeTimeout:   time.Second,
		DataDir:        dataDir,
		Fsync:          durable.FsyncAlways,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.RecoveryStats()
	if rec.PlacementsReplayed != 9 || rec.NodeRecordsReplayed != 3 || rec.JobsRecovered != 3 ||
		rec.NodesReadopted != 0 || rec.NodesLostWhileDown != 1 || rec.JournalBytesDropped != 0 {
		t.Fatalf("recovery = %+v, want 9 placement and 3 node records, 3 jobs, n1 lost", rec)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range []struct {
		id, node, remote string
		migrations       int
		orphaned         bool
		status           farm.Status
	}{
		{"fj-1", "n1", "job-1", 0, true, ""},
		{"fj-2", "n1", "job-2", 1, true, ""},
		{"fj-3", "n1", "job-3", 0, false, farm.StatusDone},
	} {
		fj := r.jobs[w.id]
		if fj == nil {
			t.Errorf("%s not recovered", w.id)
			continue
		}
		if fj.node != w.node || fj.remoteID != w.remote || fj.migrations != w.migrations ||
			fj.orphaned != w.orphaned || fj.terminal != (w.status != "") || fj.view.Status != w.status {
			t.Errorf("%s recovered on %s as %s (migrations %d, orphaned %v, terminal %v, status %q), want %+v",
				w.id, fj.node, fj.remoteID, fj.migrations, fj.orphaned, fj.terminal, fj.view.Status, w)
		}
	}
	if r.nextID != 3 {
		t.Errorf("nextID = %d, want 3 (fleet IDs continue past the journal's)", r.nextID)
	}
}

// TestPeerTerminalDropsCheckpoint: a job a peer's delta reports
// finished loses its persisted checkpoint, exactly as a finish this
// router observes itself does. Our own watcher then meets the terminal
// guard, and recovery keeps terminal tombstones, so nothing else would.
func TestPeerTerminalDropsCheckpoint(t *testing.T) {
	r, err := OpenRouter(RouterConfig{
		HeartbeatEvery: time.Hour,
		DataDir:        t.TempDir(),
		Fsync:          durable.FsyncNone,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("open router: %v", err)
	}
	defer r.Close()
	hasCkpt := func(id string) bool {
		for _, c := range r.store.Checkpoints() {
			if c == id {
				return true
			}
		}
		return false
	}
	peer := &peerState{addr: "peer"}
	job := DeltaJob{
		ID: "rb-fj-1", Spec: clusterSpec("Rocket-2C", 1000, 1), Key: "k", Node: "n1", Remote: "job-1",
		View: farm.JobView{ID: "job-1", Status: farm.StatusRunning}, Rev: 1,
	}
	r.applyPeerDelta(peer, PlacementDelta{RouterID: "rb", Seq: 1, Jobs: []DeltaJob{job}})
	if err := r.store.SaveCheckpoint(job.ID, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if !hasCkpt(job.ID) {
		t.Fatalf("checkpoints %v lack %s after save", r.store.Checkpoints(), job.ID)
	}
	job.Terminal, job.Rev, job.View.Status = true, 2, farm.StatusDone
	r.applyPeerDelta(peer, PlacementDelta{RouterID: "rb", Seq: 2, Jobs: []DeltaJob{job}})
	if hasCkpt(job.ID) {
		t.Errorf("checkpoints %v still list %s after the peer reported it done", r.store.Checkpoints(), job.ID)
	}
}
