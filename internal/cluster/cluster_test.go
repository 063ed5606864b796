package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dedupsim/internal/durable"
	"dedupsim/internal/farm"
	"dedupsim/internal/faultinject"
	"dedupsim/internal/obs"
)

// newTestRouter starts a router plus its HTTP front end. The returned
// server URL is what worker nodes' artifact-fetch hooks dial.
func newTestRouter(t *testing.T, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	r := NewRouter(cfg)
	ts := httptest.NewServer(Handler(r))
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})
	return r, ts
}

// testNode is one in-process worker: a farm plus its HTTP server,
// registered with the router under a fixed ID.
type testNode struct {
	id   string
	farm *farm.Farm
	srv  *httptest.Server
	once sync.Once
}

// kill tears the node down abruptly — the chaos test's node death.
// Idempotent so t.Cleanup can run after an explicit mid-test kill.
func (n *testNode) kill() {
	n.once.Do(func() {
		n.srv.Close()
		n.farm.Close()
	})
}

func startNode(t *testing.T, r *Router, routerURL, id string, cfg farm.Config) *testNode {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	cfg.FetchArtifact = RouterArtifactFetcher(nil, routerURL)
	f, err := farm.Open(cfg)
	if err != nil {
		t.Fatalf("node %s: %v", id, err)
	}
	srv := httptest.NewServer(farm.Handler(f))
	if err := r.Register(id, srv.URL); err != nil {
		srv.Close()
		f.Close()
		t.Fatalf("register %s: %v", id, err)
	}
	n := &testNode{id: id, farm: f, srv: srv}
	t.Cleanup(n.kill)
	return n
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func clusterSpec(design string, cycles int, seed uint64) farm.JobSpec {
	return farm.JobSpec{
		DesignSpec: farm.DesignSpec{Design: design, Scale: 0.1},
		Variant:    "Dedup",
		Workload:   "A",
		Cycles:     cycles,
		Seed:       seed,
	}
}

// sameResults asserts bit-exactness on the deterministic simulation
// fields — the ones that must not depend on where (or how many times,
// via checkpoint resume) a job ran. Wall-clock and cache fields are
// intentionally excluded.
func sameResults(t *testing.T, label string, got, want *farm.SimStats) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing stats (got %v, want %v)", label, got, want)
	}
	if got.Cycles != want.Cycles || got.ActsExecuted != want.ActsExecuted ||
		got.ActsSkipped != want.ActsSkipped || got.DynInstrs != want.DynInstrs ||
		got.Workload != want.Workload {
		t.Errorf("%s: counters diverged:\n got cycles=%d acts=%d/%d instrs=%d wl=%q\nwant cycles=%d acts=%d/%d instrs=%d wl=%q",
			label,
			got.Cycles, got.ActsExecuted, got.ActsSkipped, got.DynInstrs, got.Workload,
			want.Cycles, want.ActsExecuted, want.ActsSkipped, want.DynInstrs, want.Workload)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("%s: outputs diverged:\n got %v\nwant %v", label, got.Outputs, want.Outputs)
	}
}

func nodeStatSum(st FleetStats, field func(*farm.Stats) int64) int64 {
	var n int64
	for _, fs := range st.NodeStats {
		n += field(fs)
	}
	return n
}

// TestNodeIdentityDefaults pins the -node-id / -advertise-addr default
// derivation: hostname:port identity, and a dialable advertise URL even
// for wildcard listen addresses.
func TestNodeIdentityDefaults(t *testing.T) {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "node"
	}
	if got, want := DefaultNodeID(":8081"), host+":8081"; got != want {
		t.Errorf("DefaultNodeID(\":8081\") = %q, want %q", got, want)
	}
	if got, want := DefaultAdvertiseAddr("10.0.0.7:9090"), "http://10.0.0.7:9090"; got != want {
		t.Errorf("DefaultAdvertiseAddr explicit host = %q, want %q", got, want)
	}
	got := DefaultAdvertiseAddr(":9090")
	if !strings.HasPrefix(got, "http://") || !strings.HasSuffix(got, ":9090") || strings.Contains(got, "//:") {
		t.Errorf("DefaultAdvertiseAddr(\":9090\") = %q, want a dialable http URL on port 9090", got)
	}
}

// TestDuplicateNodeID pins the registration rules: a second live process
// claiming an existing node ID is rejected (409 over HTTP, permanent
// error from JoinRouter), re-registering the same identity at the same
// address is idempotent, and a dead node's identity can be reclaimed by
// a new incarnation.
func TestDuplicateNodeID(t *testing.T) {
	r, ts := newTestRouter(t, RouterConfig{HeartbeatEvery: time.Hour})

	if err := r.Register("n1", "http://127.0.0.1:1"); err != nil {
		t.Fatalf("first register: %v", err)
	}
	err := r.Register("n1", "http://127.0.0.1:2")
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate id at a new addr: got %v, want 'already registered'", err)
	}
	if err := r.Register("n1", "http://127.0.0.1:1"); err != nil {
		t.Fatalf("idempotent re-register: %v", err)
	}

	// Over HTTP the conflict must surface as 409, and JoinRouter must
	// treat it as permanent (no retry loop) with the router's message.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	err = JoinRouter(ctx, nil, ts.URL, "n1", "http://127.0.0.1:3")
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("JoinRouter with duplicate id: got %v, want rejection", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("JoinRouter retried a permanent 409 rejection for %s", time.Since(start))
	}
	if err := JoinRouter(ctx, nil, ts.URL, "n2", "http://127.0.0.1:4"); err != nil {
		t.Fatalf("JoinRouter with fresh id: %v", err)
	}

	// A dead node's identity is reclaimable by its next incarnation.
	r.mu.Lock()
	r.registry.markDead("n1")
	r.mu.Unlock()
	if err := r.Register("n1", "http://127.0.0.1:9"); err != nil {
		t.Fatalf("re-register after death: %v", err)
	}
	for _, n := range r.Nodes() {
		if n.ID == "n1" && n.State != NodeAlive {
			t.Fatalf("reincarnated node n1 is %s, want alive", n.State)
		}
	}
}

// TestRouterRelays429 pins the load-shed contract: when every candidate
// worker sheds with 429, the router relays the worker's own rejection —
// status code and Retry-After header — unchanged, so client backoff
// logic works identically against a node or the fleet.
func TestRouterRelays429(t *testing.T) {
	r, ts := newTestRouter(t, RouterConfig{HeartbeatEvery: time.Hour})
	startNode(t, r, ts.URL, "n1", farm.Config{Workers: 1, QueueDepth: 1})

	// Long jobs pile up on the single tiny-queue worker until it sheds.
	var last *http.Response
	for i := 0; i < 12; i++ {
		spec := clusterSpec("Rocket-2C", 1_000_000, uint64(i+1))
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			last = resp
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if last == nil {
		t.Fatal("worker with queue depth 1 never shed load")
	}
	defer last.Body.Close()
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fleet rejection: HTTP %d, want 429", last.StatusCode)
	}
	if ra := last.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want the worker's own %q relayed", ra, "1")
	}
	body, _ := io.ReadAll(last.Body)
	if !strings.Contains(string(body), "queue") {
		t.Errorf("shed body %q does not carry the worker's error", body)
	}
}

// TestRouterBodyLimit: the router's JSON POST endpoints refuse a body
// longer than one journal record (durable.MaxRecordLen) with 413; the
// same body padded to exactly the limit gets through to the handler.
func TestRouterBodyLimit(t *testing.T) {
	_, ts := newTestRouter(t, RouterConfig{HeartbeatEvery: time.Hour})
	spec, _ := json.Marshal(clusterSpec("Rocket-2C", 200, 1))
	for _, tc := range []struct {
		path, body string
		atLimit    int
	}{
		{"/jobs", string(spec), http.StatusServiceUnavailable}, // no nodes yet
		{"/nodes/register", `{"id":"n1","addr":"http://127.0.0.1:1"}`, http.StatusOK},
	} {
		for _, extra := range []int{0, 1} {
			// Leading whitespace is valid JSON the decoder must read through.
			body := strings.Repeat(" ", durable.MaxRecordLen-len(tc.body)+extra) + tc.body
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := tc.atLimit
			if extra > 0 {
				want = http.StatusRequestEntityTooLarge
			}
			if resp.StatusCode != want {
				t.Errorf("POST %s, %d-byte body: got %d (%s), want %d", tc.path, len(body), resp.StatusCode, b, want)
			}
		}
	}
}

// TestRouterBadNodeStats: a node whose /stats body is not JSON stays a
// live member but contributes nothing to the fleet sums, while a node
// with valid stats is summed.
func TestRouterBadNodeStats(t *testing.T) {
	r, _ := newTestRouter(t, RouterConfig{HeartbeatEvery: time.Hour})
	fakeNode := func(stats string) string {
		mux := http.NewServeMux()
		ok := func(w http.ResponseWriter, _ *http.Request) {}
		mux.HandleFunc("GET /livez", ok)
		mux.HandleFunc("GET /readyz", ok)
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, stats) })
		mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "[]") })
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	for id, stats := range map[string]string{"good": `{"cache":{"misses":2}}`, "bad": "not json"} {
		if err := r.Register(id, fakeNode(stats)); err != nil {
			t.Fatal(err)
		}
	}
	r.pollOnce(context.Background())

	st := r.Stats()
	if len(st.Nodes) != 2 {
		t.Fatalf("nodes = %+v, want good and bad", st.Nodes)
	}
	for _, n := range st.Nodes {
		if n.State != NodeAlive || !n.Ready {
			t.Errorf("node %s is %s (ready %v), want alive and ready", n.ID, n.State, n.Ready)
		}
	}
	if _, ok := st.NodeStats["bad"]; ok {
		t.Error("node with non-JSON /stats appears in NodeStats")
	}
	if fs := st.NodeStats["good"]; fs == nil || fs.Cache.Misses != 2 || st.Compiles != 2 {
		t.Errorf("good node stats %+v, fleet compiles %d; want 2 misses summed", fs, st.Compiles)
	}
}

// TestRouterNoNodes: a fleet with no registered (or no alive) workers
// refuses submissions with 503, not a hang or a 5xx surprise.
func TestRouterNoNodes(t *testing.T) {
	_, ts := newTestRouter(t, RouterConfig{HeartbeatEvery: time.Hour})
	body, _ := json.Marshal(clusterSpec("Rocket-2C", 200, 1))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with no nodes: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestClusterSmokeSpillWarm is the multi-node CI smoke: a router and two
// in-process workers, same-hash jobs flooding past the bounded-load
// threshold. It pins the fleet's core dedup promise — exactly ONE
// compile fleet-wide — plus cache-affinity spill and the cross-node
// artifact warm path (the spill target imports the compiled Program
// from the router instead of recompiling).
func TestClusterSmokeSpillWarm(t *testing.T) {
	r, ts := newTestRouter(t, RouterConfig{HeartbeatEvery: 25 * time.Millisecond})
	startNode(t, r, ts.URL, "n1", farm.Config{Workers: 2})
	startNode(t, r, ts.URL, "n2", farm.Config{Workers: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Seed job: compiles on its hash's home node; the heartbeat loop then
	// replicates the artifact into the router's store.
	seed, err := r.Submit(ctx, clusterSpec("Rocket-2C", 2000, 1))
	if err != nil {
		t.Fatalf("seed submit: %v", err)
	}
	if v, err := r.WaitDone(ctx, seed.ID); err != nil || v.Status != farm.StatusDone {
		t.Fatalf("seed job: %v (%+v)", err, v)
	}
	waitFor(t, 15*time.Second, "artifact replication to the router", func() bool {
		return r.Stats().ArtifactsReplicated >= 1
	})

	// Flood same-hash jobs. Consistent hashing sends them all to one home
	// node; bounded load spills the overflow to the peer, which warms from
	// the router's artifact store instead of compiling. The router drops a
	// job's load the moment it finishes, so flood jobs must outlast the
	// submit loop for the home node's load to build up.
	ids := []string{seed.ID}
	for i := 2; i <= 9; i++ {
		v, err := r.Submit(ctx, clusterSpec("Rocket-2C", 20000, uint64(i)))
		if err != nil {
			t.Fatalf("flood submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v, err := r.WaitDone(ctx, id); err != nil || v.Status != farm.StatusDone {
			t.Fatalf("job %s: %v (%+v)", id, err, v)
		}
	}
	waitFor(t, 15*time.Second, "fleet stats to settle", func() bool {
		st := r.Stats()
		return len(st.NodeStats) == 2 &&
			nodeStatSum(st, func(fs *farm.Stats) int64 { return fs.JobsCompleted }) >= int64(len(ids))
	})

	st := r.Stats()
	if st.Compiles != 1 {
		t.Errorf("fleet compiled %d times for one structural hash, want exactly 1", st.Compiles)
	}
	if st.Forwarded != int64(len(ids)) {
		t.Errorf("forwarded %d jobs, want %d", st.Forwarded, len(ids))
	}
	if st.Spilled < 1 {
		t.Errorf("no bounded-load spill across %d same-hash jobs", len(ids))
	}
	if st.ArtifactsFetched < 1 {
		t.Errorf("spill target never fetched the compile artifact from the router")
	}
	if st.WarmHits < 1 {
		t.Errorf("no warm cache hits fleet-wide; artifact import did not pay off")
	}
	for id, fs := range st.NodeStats {
		if fs.JobsCompleted == 0 {
			t.Errorf("node %s completed no jobs; flood never spilled to it", id)
		}
	}

	// Waveforms proxy through the router to the owner node.
	v, err := r.Submit(ctx, farm.JobSpec{
		DesignSpec: farm.DesignSpec{Design: "Rocket-2C", Scale: 0.1},
		Variant:    "Dedup", Workload: "A", Cycles: 64, Seed: 1, VCD: true,
	})
	if err != nil {
		t.Fatalf("vcd submit: %v", err)
	}
	if w, err := r.WaitDone(ctx, v.ID); err != nil || w.Status != farm.StatusDone {
		t.Fatalf("vcd job: %v (%+v)", err, w)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/vcd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wave, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(wave) == 0 {
		t.Fatalf("proxied VCD fetch: HTTP %d, %d bytes", resp.StatusCode, len(wave))
	}

	var buf bytes.Buffer
	r.WriteStatus(&buf)
	for _, want := range []string{"fleet: 2 nodes", "node n1", "node n2", "fleet dedup:"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/statusz missing %q:\n%s", want, buf.String())
		}
	}
}

// TestClusterChaosKillNode is the fleet's acceptance chaos run: three
// workers, a node killed while its jobs are mid-flight, and every job
// must still finish bit-exact against a fault-free single-node
// reference. The kill is gated on the router having already pulled a
// checkpoint and the compile artifacts, so the run must demonstrate
// checkpoint migration (cycles_saved_by_resume > 0), artifact warming
// on the new owner (warm_hits > 0), and exactly one compile per
// structural hash fleet-wide.
func TestClusterChaosKillNode(t *testing.T) {
	designs := []string{"Rocket-2C", "SmallBoom-2C"}

	// Job mix: one short seed job per design (paid compile + artifact
	// replication), then long paced jobs that stay in flight long enough
	// to be killed mid-run.
	var specs []farm.JobSpec
	for i, d := range designs {
		specs = append(specs, clusterSpec(d, 2000, uint64(50+i)))
	}
	floodStart := len(specs)
	for i, d := range designs {
		for s := 1; s <= 4; s++ {
			spec := clusterSpec(d, 12288, uint64(s))
			if i == 1 {
				spec.Workload = "B"
			}
			specs = append(specs, spec)
		}
	}

	// Fault-free single-node reference for bit-exactness.
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

	r, ts := newTestRouter(t, RouterConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		DeadAfter:      2,
		ProbeTimeout:   500 * time.Millisecond,
	})
	nodes := map[string]*testNode{}
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("n%d", i)
		// step.stall paces the long jobs (~5ms per fired cycle at rate
		// 0.01) so they are reliably mid-flight when the node dies; it
		// never changes simulation results, only wall time.
		faults := faultinject.New(faultinject.Config{
			Seed:  uint64(i),
			Rates: map[faultinject.Point]float64{faultinject.StepStall: 0.01},
			Stall: 5 * time.Millisecond,
		})
		nodes[id] = startNode(t, r, ts.URL, id, farm.Config{
			Workers:         2,
			CheckpointEvery: 512,
			Faults:          faults,
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	// Seed phase: one compile per design, then both artifacts replicated
	// into the router's store before any job can land on a cold peer.
	fleetIDs := make([]string, len(specs))
	for i := 0; i < floodStart; i++ {
		v, err := r.Submit(ctx, specs[i])
		if err != nil {
			t.Fatalf("seed submit %d: %v", i, err)
		}
		fleetIDs[i] = v.ID
		if w, err := r.WaitDone(ctx, v.ID); err != nil || w.Status != farm.StatusDone {
			t.Fatalf("seed job %d: %v (%+v)", i, err, w)
		}
	}
	waitFor(t, 15*time.Second, "both artifacts replicated", func() bool {
		return r.Stats().ArtifactsReplicated >= int64(len(designs))
	})

	for i := floodStart; i < len(specs); i++ {
		v, err := r.Submit(ctx, specs[i])
		if err != nil {
			t.Fatalf("flood submit %d: %v", i, err)
		}
		fleetIDs[i] = v.ID
	}

	// Kill gate: wait until some in-flight job's checkpoint has been
	// pulled (and still has meaningful work left), then kill its owner —
	// the worst moment for that node to die, and the proof moment for
	// resume-from-checkpoint migration.
	var victim string
	waitFor(t, 60*time.Second, "a mid-flight job with a pulled checkpoint", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, fj := range r.jobs {
			if !fj.terminal && !fj.orphaned &&
				fj.ckptCycle >= 512 && fj.ckptCycle <= int64(fj.spec.Cycles)-4096 {
				victim = fj.node
				return true
			}
		}
		return false
	})
	t.Logf("killing node %s mid-flight", victim)
	nodes[victim].kill()

	for i, id := range fleetIDs {
		v, err := r.WaitDone(ctx, id)
		if err != nil || v.Status != farm.StatusDone {
			t.Fatalf("job %s (spec %d): %v (%+v)", id, i, err, v)
		}
		sameResults(t, fmt.Sprintf("job %s (%s seed %d)", id, specs[i].Design, specs[i].Seed),
			v.Stats, wants[i])
	}

	waitFor(t, 15*time.Second, "post-migration fleet stats to settle", func() bool {
		st := r.Stats()
		return st.Migrations >= 1 && st.CyclesSavedByResume > 0
	})
	st := r.Stats()
	if st.NodeDeaths != 1 {
		t.Errorf("node deaths = %d, want 1", st.NodeDeaths)
	}
	if st.Migrations < 1 {
		t.Errorf("no jobs migrated off the dead node")
	}
	if st.CheckpointsPulled < 1 {
		t.Errorf("router pulled no checkpoints")
	}
	if st.CyclesSavedByResume <= 0 {
		t.Errorf("cycles_saved_by_resume = %d, want > 0: migration restarted from cycle 0", st.CyclesSavedByResume)
	}
	if st.WarmHits < 1 {
		t.Errorf("warm_hits = %d, want > 0: no node warmed from a peer's compile", st.WarmHits)
	}
	if st.Compiles != int64(len(designs)) {
		t.Errorf("fleet compiled %d times for %d structural hashes, want exactly one compile each",
			st.Compiles, len(designs))
	}

	var buf bytes.Buffer
	r.WriteStatus(&buf)
	status := buf.String()
	if !strings.Contains(status, "dead") || !strings.Contains(status, "migrated") {
		t.Errorf("/statusz does not report the death and migration:\n%s", status)
	}

	// Migration observability: a migrated job's router trace must record
	// the orphaned and migrate events with the node-death cause and the
	// actual placement move, and the job's trace ID must survive onto
	// the new owner — the whole point of the ID living in the spec.
	r.mu.Lock()
	var trace *obs.Trace
	var newOwner, remoteID, traceID string
	for _, fj := range r.jobs {
		if fj.migrations > 0 {
			trace, newOwner, remoteID, traceID = fj.trace, fj.node, fj.remoteID, fj.spec.TraceID
			break
		}
	}
	r.mu.Unlock()
	if trace == nil {
		t.Fatal("no migrated fleet job carries a trace")
	}
	tv := trace.View()
	var sawOrphaned, sawMigrate bool
	for _, e := range tv.Events {
		switch e.Name {
		case "orphaned":
			sawOrphaned = true
			if e.Attrs["cause"] != "node-death" || e.Attrs["node"] != victim {
				t.Errorf("orphaned event attrs = %v, want cause=node-death node=%s", e.Attrs, victim)
			}
		case "migrate":
			sawMigrate = true
			if e.Attrs["cause"] != "node-death" || e.Attrs["from"] != victim || e.Attrs["to"] != newOwner {
				t.Errorf("migrate event attrs = %v, want cause=node-death from=%s to=%s",
					e.Attrs, victim, newOwner)
			}
		}
	}
	if !sawOrphaned || !sawMigrate {
		t.Errorf("migrated job's trace lacks orphaned/migrate events: %+v", tv.Events)
	}
	if traceID == "" || tv.TraceID != traceID {
		t.Errorf("router trace ID %q does not match spec %q", tv.TraceID, traceID)
	}
	wj, ok := nodes[newOwner].farm.Job(remoteID)
	if !ok {
		t.Fatalf("new owner %s has no job %q", newOwner, remoteID)
	}
	if wj.Spec.TraceID != traceID {
		t.Errorf("trace ID lost in migration: new owner has %q, want %q", wj.Spec.TraceID, traceID)
	}
}
