package farm

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dedupsim/internal/obs"
)

// TestServerObservability drives the HTTP surface of the observability
// layer against a live farm: trace-ID round-trip via X-Trace-Id, raw
// and Chrome-format trace export, latency quantiles in /stats, and a
// grammar-linted Prometheus /metrics page.
func TestServerObservability(t *testing.T) {
	f := New(Config{Workers: 2})
	defer f.Close()
	ts := httptest.NewServer(Handler(f))
	defer ts.Close()

	// A caller-supplied trace ID round-trips: response header, job view,
	// and the trace itself all carry it.
	const traceID = "cafe0123beef4567"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs",
		strings.NewReader(`{"design":"Rocket-2C","scale":0.1,"cycles":300}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Errorf("response X-Trace-Id = %q, want %q", got, traceID)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.TraceID != traceID {
		t.Errorf("view trace ID = %q, want %q", view.TraceID, traceID)
	}
	done := waitDone(t, f, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("job: %s (%s)", done.Status, done.Error)
	}

	// Raw event export: the trace carries the submitted ID and the core
	// lifecycle events.
	resp, err = http.Get(ts.URL + "/jobs/" + view.ID + "/trace?format=events")
	if err != nil {
		t.Fatal(err)
	}
	var tv obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tv.TraceID != traceID {
		t.Errorf("trace export ID = %q, want %q", tv.TraceID, traceID)
	}
	seen := map[string]bool{}
	for _, e := range tv.Events {
		seen[e.Name] = true
	}
	for _, want := range []string{"submitted", "queued", "compile", "run", "done"} {
		if !seen[want] {
			t.Errorf("trace missing %q event (have %v)", want, tv.Events)
		}
	}
	// The compile span says whether this job paid for an elaboration and
	// for a compile: the farm's first job pays for both.
	for _, e := range tv.Events {
		if e.Name == "compile" && (e.Attrs["design_hit"] != "false" || e.Attrs["hit"] != "false") {
			t.Errorf("first job's compile span attrs = %v, want design_hit=false hit=false", e.Attrs)
		}
	}

	// Chrome export: one JSON document Perfetto opens — metadata plus X/i
	// events, JSON content type.
	resp, err = http.Get(ts.URL + "/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("trace Content-Type = %q, want application/json", ct)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	resp.Body.Close()
	phs := map[string]bool{}
	for _, e := range chrome.TraceEvents {
		phs[e.Ph] = true
	}
	if !phs["M"] || !phs["X"] || !phs["i"] {
		t.Errorf("chrome trace lacks metadata/span/instant events: %+v", chrome.TraceEvents)
	}

	// The all-jobs timeline parses the same way.
	resp, err = http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var all json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	resp.Body.Close()

	// /stats exposes the latency digests with ordered quantile bounds.
	st := f.Stats()
	l := st.Latency
	if l == nil {
		t.Fatal("stats.Latency is nil with observability on")
	}
	if l.QueueWait.Count == 0 || l.Compile.Count == 0 || l.SimRun.Count == 0 || l.EndToEnd.Count == 0 {
		t.Errorf("latency digests missing samples: %+v", l)
	}
	for name, s := range map[string]obs.Summary{
		"queue_wait": l.QueueWait, "compile": l.Compile,
		"sim_run": l.SimRun, "end_to_end": l.EndToEnd,
	} {
		if s.P50Ms > s.P95Ms || s.P95Ms > s.P99Ms || s.P99Ms > s.MaxMs {
			t.Errorf("%s quantiles out of order: %+v", name, s)
		}
	}

	// /metrics is valid Prometheus text format, with the right content
	// type and the histogram families present.
	resp, err = http.Get(ts.URL + "/metrics")
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
		t.Errorf("/metrics fails the Prometheus lint: %v\n%s", errs, page)
	}
	for _, want := range []string{
		"dedupfarm_jobs_submitted_total",
		"dedupfarm_design_store_hits_total 0",
		"dedupfarm_design_store_misses_total 1",
		"dedupfarm_design_store_evictions_total 0",
		"dedupfarm_design_store_resident 1",
		"dedupfarm_job_seconds_bucket",
		"dedupfarm_queue_wait_seconds_count",
		"dedupfarm_sim_run_seconds_sum",
		`le="+Inf"`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
