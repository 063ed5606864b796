package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dedupsim/internal/farm"
	"dedupsim/internal/obs"
)

// TestTraceIDPropagation pins the fleet's trace-identity contract: a
// trace ID supplied at the router's front door (X-Trace-Id) reaches the
// worker node's job unchanged, the router echoes it on the response,
// and both the router's and the worker's trace exports carry it.
func TestTraceIDPropagation(t *testing.T) {
	r, ts := newTestRouter(t, RouterConfig{HeartbeatEvery: 25 * time.Millisecond})
	node := startNode(t, r, ts.URL, "n1", farm.Config{Workers: 2})

	const traceID = "feedface00112233"
	body, _ := json.Marshal(clusterSpec("Rocket-2C", 500, 7))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Errorf("router response X-Trace-Id = %q, want %q", got, traceID)
	}
	var fv FleetJobView
	if err := json.NewDecoder(resp.Body).Decode(&fv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fv.Spec.TraceID != traceID {
		t.Errorf("fleet view trace ID = %q, want %q", fv.Spec.TraceID, traceID)
	}

	// The worker's copy of the job carries the same ID.
	wj, ok := node.farm.Job(fv.RemoteID)
	if !ok {
		t.Fatalf("worker has no job %q", fv.RemoteID)
	}
	if wj.Spec.TraceID != traceID {
		t.Errorf("worker job trace ID = %q, want %q", wj.Spec.TraceID, traceID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if v, err := r.WaitDone(ctx, fv.ID); err != nil || v.Status != farm.StatusDone {
		t.Fatalf("job: %v (%+v)", err, v)
	}

	// Router's raw trace export names the same ID and records placement.
	resp, err = http.Get(ts.URL + "/jobs/" + fv.ID + "/trace?format=events")
	if err != nil {
		t.Fatal(err)
	}
	var tv obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tv.TraceID != traceID {
		t.Errorf("router trace ID = %q, want %q", tv.TraceID, traceID)
	}
	names := map[string]bool{}
	for _, e := range tv.Events {
		names[e.Name] = true
	}
	for _, want := range []string{"submitted", "forward"} {
		if !names[want] {
			t.Errorf("router trace missing %q event (have %v)", want, tv.Events)
		}
	}

	// The merged Chrome trace holds two threads — router and worker —
	// and the worker thread contributes its own lifecycle events.
	resp, err = http.Get(ts.URL + "/jobs/" + fv.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	resp.Body.Close()
	tids := map[int]bool{}
	eventNames := map[string]bool{}
	for _, e := range chrome.TraceEvents {
		tids[e.Tid] = true
		eventNames[e.Name] = true
	}
	if len(tids) != 2 {
		t.Errorf("merged trace has %d threads, want 2 (router + worker)", len(tids))
	}
	for _, want := range []string{"forward", "run", "compile"} {
		if !eventNames[want] {
			t.Errorf("merged trace missing %q event", want)
		}
	}
}

// TestRouterMetricsLint scrapes the router's /metrics in-process and
// validates it against the Prometheus text-format grammar, including
// the per-node health gauges.
func TestRouterMetricsLint(t *testing.T) {
	r, ts := newTestRouter(t, RouterConfig{HeartbeatEvery: 25 * time.Millisecond})
	startNode(t, r, ts.URL, "n1", farm.Config{Workers: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := r.Submit(ctx, clusterSpec("Rocket-2C", 300, 1))
	if err != nil {
		t.Fatal(err)
	}
	if w, err := r.WaitDone(ctx, v.ID); err != nil || w.Status != farm.StatusDone {
		t.Fatalf("job: %v (%+v)", err, w)
	}
	waitFor(t, 10*time.Second, "probe to mark the node alive", func() bool {
		for _, n := range r.Nodes() {
			if n.State == NodeAlive {
				return true
			}
		}
		return false
	})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintProm(page); len(errs) > 0 {
		t.Errorf("router /metrics fails the Prometheus lint: %v\n%s", errs, page)
	}
	for _, want := range []string{
		"dedupfleet_jobs_submitted_total",
		`dedupfleet_node_up{node="n1"} 1`,
		`dedupfleet_node_load{node="n1"}`,
		"dedupfleet_forward_seconds_bucket",
		"dedupfleet_job_seconds_count",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

// TestRouterMetricsMatchStats pins /metrics to the /stats snapshot: after
// a fixed job sequence every counter and gauge series on the page carries
// exactly the value of the FleetStats field it names, and no series
// beyond the two latency histograms comes from anywhere else. The second
// router is journaled, so it reports a recovery, and has a peer that never
// answers, so the peer's row is labelled by address (its ID is unknown).
func TestRouterMetricsMatchStats(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	t.Run("in-memory", func(t *testing.T) {
		checkMetricsMatchStats(t, RouterConfig{HeartbeatEvery: 25 * time.Millisecond})
	})
	t.Run("recovered-with-peer", func(t *testing.T) {
		checkMetricsMatchStats(t, RouterConfig{
			HeartbeatEvery: 25 * time.Millisecond,
			DataDir:        t.TempDir(),
			Peers:          []string{dead.URL},
		})
	})
}

func checkMetricsMatchStats(t *testing.T, cfg RouterConfig) {
	r, ts := newTestRouter(t, cfg)
	startNode(t, r, ts.URL, "n1", farm.Config{Workers: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, design := range []string{"Rocket-2C", "Rocket-2C", "SmallBoom-2C"} {
		v, err := r.Submit(ctx, clusterSpec(design, 300, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if w, err := r.WaitDone(ctx, v.ID); err != nil || w.Status != farm.StatusDone {
			t.Fatalf("job %d: %v (%+v)", i, err, w)
		}
	}
	waitFor(t, 10*time.Second, "probe to mark the node alive", func() bool {
		n := r.Nodes()
		return len(n) == 1 && n[0].State == NodeAlive
	})

	scrape := func() map[string]float64 {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		series := map[string]float64{}
		for _, line := range strings.Split(string(page), "\n") {
			if line == "" || strings.HasPrefix(line, "#") ||
				strings.HasPrefix(line, "dedupfleet_forward_seconds") || strings.HasPrefix(line, "dedupfleet_job_seconds") {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("series %q: %v", line, err)
			}
			series[line[:i]] = v
		}
		return series
	}
	// Background probes may move a gauge between reads; take the page
	// between two equal snapshots.
	var want, got map[string]float64
	waitFor(t, 10*time.Second, "a quiet snapshot", func() bool {
		want = fleetSeries(r.Stats())
		got = scrape()
		return reflect.DeepEqual(want, fleetSeries(r.Stats()))
	})
	if want["dedupfleet_jobs_submitted_total"] != 3 || want["dedupfleet_jobs_forwarded_total"] != 3 {
		t.Fatalf("stats after three jobs: %v", want)
	}
	if _, ok := want["dedupfleet_recovery_millis"]; ok != (cfg.DataDir != "") {
		t.Fatalf("recovery gauges present = %v with data dir %q", ok, cfg.DataDir)
	}
	for _, addr := range cfg.Peers {
		if _, ok := want[`dedupfleet_peer_up{peer="`+addr+`"}`]; !ok {
			t.Fatalf("no peer_up row labelled by address %s: %v", addr, want)
		}
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("/metrics %s = %v (present %v), FleetStats says %v", name, g, ok, v)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("/metrics series %s has no FleetStats field", name)
		}
	}
}

// fleetSeries maps every counter and gauge series the router exposes to
// the FleetStats field it must carry.
func fleetSeries(st FleetStats) map[string]float64 {
	m := map[string]float64{
		"dedupfleet_jobs_submitted_total":       float64(st.JobsSubmitted),
		"dedupfleet_jobs_forwarded_total":       float64(st.Forwarded),
		"dedupfleet_jobs_spilled_total":         float64(st.Spilled),
		"dedupfleet_failovers_total":            float64(st.Failovers),
		"dedupfleet_migrations_total":           float64(st.Migrations),
		"dedupfleet_node_deaths_total":          float64(st.NodeDeaths),
		"dedupfleet_checkpoints_pulled_total":   float64(st.CheckpointsPulled),
		"dedupfleet_artifacts_replicated_total": float64(st.ArtifactsReplicated),
		"dedupfleet_artifacts_served_total":     float64(st.ArtifactsServed),
		"dedupfleet_artifact_evictions_total":   float64(st.ArtifactEvictions),
		"dedupfleet_routekey_evictions_total":   float64(st.RouteKeyEvictions),
		"dedupfleet_artifact_disk_hits_total":   float64(st.ArtifactDiskHits),
		"dedupfleet_jobs_adopted_total":         float64(st.JobsAdopted),
		"dedupfleet_peer_syncs_total":           float64(st.PeerSyncs),
		"dedupfleet_peer_sync_failures_total":   float64(st.PeerSyncFailures),
		"dedupfleet_nodes":                      float64(len(st.Nodes)),
		"dedupfleet_jobs_live":                  float64(st.JobsLive),
		"dedupfleet_jobs_orphaned":              float64(st.JobsOrphaned),
	}
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for _, n := range st.Nodes {
		l := `{node="` + n.ID + `"}`
		m["dedupfleet_node_up"+l] = flag(n.State == NodeAlive)
		m["dedupfleet_node_ready"+l] = flag(n.Ready)
		m["dedupfleet_node_load"+l] = float64(n.Load)
	}
	for _, pr := range st.Peers {
		id := pr.ID
		if id == "" {
			id = pr.Addr
		}
		m[`dedupfleet_peer_up{peer="`+id+`"}`] = flag(pr.Up)
	}
	if rec := st.Recovery; rec != nil {
		m["dedupfleet_recovery_placements_replayed"] = float64(rec.PlacementsReplayed)
		m["dedupfleet_recovery_jobs_recovered"] = float64(rec.JobsRecovered)
		m["dedupfleet_recovery_nodes_readopted"] = float64(rec.NodesReadopted)
		m["dedupfleet_recovery_artifacts_reloaded"] = float64(rec.ArtifactsReloaded)
		m["dedupfleet_recovery_millis"] = rec.RecoveryMillis
	}
	for name, v := range st.Tenants {
		l := `{tenant="` + name + `"}`
		m["dedupfleet_tenant_jobs_submitted_total"+l] = float64(v.Submitted)
		m["dedupfleet_tenant_jobs_shed_total"+l] = float64(v.Shed)
		m["dedupfleet_tenant_jobs_parked_total"+l] = float64(v.Parked)
		m["dedupfleet_tenant_sim_cycles_total"+l] = float64(v.Cycles)
		m["dedupfleet_tenant_jobs_queued"+l] = float64(v.Queued)
		m["dedupfleet_tenant_jobs_running"+l] = float64(v.Running)
	}
	return m
}
