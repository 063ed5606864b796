package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dedupsim/internal/farm"
)

// TestRouterCompletionWithoutHeartbeat pins event-driven completion:
// with a heartbeat that never ticks, a short job still reaches Done
// through WaitDone, within a fraction of a second of the node finishing
// it, and the router's GET /jobs/{id}?wait= long-polls the same way.
func TestRouterCompletionWithoutHeartbeat(t *testing.T) {
	r, ts := newTestRouter(t, RouterConfig{HeartbeatEvery: time.Hour})
	startNode(t, r, ts.URL, "n1", farm.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	v, err := r.Submit(ctx, clusterSpec("Rocket-2C", 500, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	w, err := r.WaitDone(ctx, v.ID)
	learned := time.Now()
	if err != nil || w.Status != farm.StatusDone {
		t.Fatalf("WaitDone: %v (%+v)", err, w)
	}
	if lag := learned.Sub(w.FinishedAt); lag > 500*time.Millisecond {
		t.Errorf("router learned of the finish %s after the node", lag)
	}
	if w.Stats == nil || w.Stats.Cycles != 500 {
		t.Errorf("finished view carries stats %+v, want 500 cycles", w.Stats)
	}

	v2, err := r.Submit(ctx, clusterSpec("Rocket-2C", 500, 2))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + v2.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hv FleetJobView
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil || hv.ID != v2.ID || hv.Status != farm.StatusDone {
		t.Fatalf("GET ?wait= on the router: HTTP %d, %v, %+v", resp.StatusCode, err, hv)
	}
}

// TestRouterViewMonotonic pins that a finished job stays finished: a
// heartbeat snapshot taken while the job still ran, applied after the
// watcher recorded the finish, must not revive it, and a repeated
// terminal view must not finish it twice.
func TestRouterViewMonotonic(t *testing.T) {
	r, ts := newTestRouter(t, RouterConfig{HeartbeatEvery: time.Hour})
	startNode(t, r, ts.URL, "n1", farm.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	v, err := r.Submit(ctx, clusterSpec("Rocket-2C", 500, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done, err := r.WaitDone(ctx, v.ID)
	if err != nil || done.Status != farm.StatusDone {
		t.Fatalf("WaitDone: %v (%+v)", err, done)
	}

	r.mu.Lock()
	final := r.jobs[v.ID].view
	r.mu.Unlock()
	stale := final
	stale.Status, stale.Stats, stale.FinishedAt = farm.StatusRunning, nil, time.Time{}
	r.applyProbes([]probeResult{{id: "n1", alive: true, ready: true, jobs: []farm.JobView{stale, final}}}, time.Now())
	r.applyProbes([]probeResult{{id: "n1", alive: true, ready: true, jobs: []farm.JobView{stale}}}, time.Now())

	if got, _ := r.Job(v.ID); got.Status != farm.StatusDone || got.Stats == nil {
		t.Fatalf("a stale running snapshot overwrote the finished job: %+v", got)
	}
	expired, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if got, err := r.WaitDone(expired, v.ID); err != nil || got.Status != farm.StatusDone {
		t.Fatalf("WaitDone on the finished job: %v (%+v)", err, got)
	}
	st := r.Stats()
	if st.Nodes[0].Load != 0 || st.Latency.EndToEnd.Count != 1 {
		t.Errorf("node load %d, %d finishes observed; want 0 and exactly 1",
			st.Nodes[0].Load, st.Latency.EndToEnd.Count)
	}
}

// TestRouterCloseStopsWatchers pins the shutdown order: Close cancels
// and waits for every completion watcher before it compacts and freezes
// the journal, so a job that finishes on its node after Close leaves
// no watcher behind and appends nothing.
func TestRouterCloseStopsWatchers(t *testing.T) {
	r, err := OpenRouter(RouterConfig{
		HeartbeatEvery: time.Hour,
		ProbeTimeout:   time.Second,
		DataDir:        t.TempDir(),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(r))
	t.Cleanup(ts.Close)
	n := startNode(t, r, ts.URL, "n1", farm.Config{Workers: 1})

	v, err := r.Submit(context.Background(), clusterSpec("Rocket-2C", 100_000, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	r.mu.Lock()
	watching := r.watching
	r.mu.Unlock()
	if watching != 1 {
		t.Fatalf("%d watchers after one submit, want 1", watching)
	}

	r.Close()
	r.mu.Lock()
	watching, appends := r.watching, r.appends
	r.mu.Unlock()
	if watching != 0 {
		t.Fatalf("%d watchers still running after Close", watching)
	}

	// Let the node finish the job a leaked watcher would report, then
	// close its server, which waits out any long poll still open.
	j, ok := n.farm.Job(v.RemoteID)
	if !ok {
		t.Fatalf("node has no job %s", v.RemoteID)
	}
	<-j.Done()
	n.kill()
	r.mu.Lock()
	late := r.appends - appends
	r.mu.Unlock()
	if late != 0 {
		t.Errorf("%d journal appends after Close froze the store", late)
	}
}
