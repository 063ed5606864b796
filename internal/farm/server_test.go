package farm

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dedupsim/internal/durable"
)

// TestServerEndToEnd drives the whole HTTP surface: submit two identical
// jobs, poll to completion, and check the stats/cache/statusz endpoints
// report the shared compile.
func TestServerEndToEnd(t *testing.T) {
	f := New(Config{Workers: 2})
	defer f.Close()
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	spec := `{"design":"Rocket-2C","scale":0.1,"cycles":100,"vcd":true}`
	var ids []string
	for i := 0; i < 2; i++ {
		code, body := post("/jobs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}

	// Poll until both jobs are terminal.
	deadline := time.Now().Add(60 * time.Second)
	views := map[string]JobView{}
	for len(views) < len(ids) && time.Now().Before(deadline) {
		for _, id := range ids {
			code, body := get("/jobs/" + id)
			if code != http.StatusOK {
				t.Fatalf("poll %s: %d %s", id, code, body)
			}
			var v JobView
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatal(err)
			}
			if v.Status.Terminal() {
				views[id] = v
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range ids {
		v, ok := views[id]
		if !ok {
			t.Fatalf("%s never finished", id)
		}
		if v.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", id, v.Status, v.Error)
		}
		if v.Stats == nil || v.Stats.Cycles != 100 {
			t.Errorf("%s: bad stats %+v", id, v.Stats)
		}
	}

	// Stats: one compile shared by two jobs.
	code, body := get("/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.JobsCompleted != 2 || st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Errorf("stats = %+v, want 2 done, 1 miss, 1 hit", st)
	}
	// Same story one step earlier: one elaboration shared by two jobs. The
	// block's shape is fixed — four numbers, whatever the traffic.
	var shape struct {
		DesignStore map[string]float64 `json:"design_store"`
	}
	if err := json.Unmarshal(body, &shape); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"hits": 1, "misses": 1, "evictions": 0, "resident": 1}
	if !reflect.DeepEqual(shape.DesignStore, want) {
		t.Errorf("/stats design_store = %v, want %v", shape.DesignStore, want)
	}

	code, body = get("/cache")
	if code != http.StatusOK {
		t.Fatalf("/cache: %d", code)
	}
	var cache struct {
		Entries []CacheEntryView `json:"entries"`
	}
	if err := json.Unmarshal(body, &cache); err != nil {
		t.Fatal(err)
	}
	if len(cache.Entries) != 1 || cache.Entries[0].Variant != "Dedup" {
		t.Errorf("cache entries = %+v", cache.Entries)
	}

	code, body = get("/jobs")
	if code != http.StatusOK {
		t.Fatalf("/jobs: %d", code)
	}
	var list []JobView
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Errorf("listed %d jobs, want 2", len(list))
	}

	code, body = get("/jobs/" + ids[0] + "/vcd")
	if code != http.StatusOK || !strings.Contains(string(body), "$enddefinitions") {
		t.Errorf("/vcd: %d %.80s", code, body)
	}

	code, body = get("/statusz")
	if code != http.StatusOK || !strings.Contains(string(body), "compile cache: 1 programs") ||
		!strings.Contains(string(body), "design store: 1 designs resident, 1 hits / 1 misses") {
		t.Errorf("/statusz: %d %s", code, body)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz: %d", code)
	}
}

// TestServerErrors covers the API's failure responses.
func TestServerErrors(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/jobs", `{"bogus_field":1}`, http.StatusBadRequest},
		{"POST", "/jobs", `{"variant":"NoSuch","design":"Rocket-2C"}`, http.StatusBadRequest},
		{"POST", "/jobs", `{}`, http.StatusBadRequest},
		{"GET", "/jobs/job-999", "", http.StatusNotFound},
		{"POST", "/jobs/job-999/cancel", "", http.StatusNotFound},
		{"GET", "/jobs/job-999/vcd", "", http.StatusNotFound},
		{"DELETE", "/jobs", "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: got %d (%s), want %d", tc.method, tc.path, resp.StatusCode, b, tc.want)
		}
	}
}

// TestServerBodyLimit: a submission body longer than one journal record
// (durable.MaxRecordLen) is refused with 413; the same spec padded to
// exactly the limit is accepted.
func TestServerBodyLimit(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	spec := `{"design":"Rocket-2C","scale":0.1,"cycles":100}`
	for _, tc := range []struct{ pad, want int }{
		{durable.MaxRecordLen - len(spec), http.StatusAccepted},
		{durable.MaxRecordLen - len(spec) + 1, http.StatusRequestEntityTooLarge},
	} {
		// Leading whitespace is valid JSON the decoder must read through.
		body := strings.Repeat(" ", tc.pad) + spec
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body: got %d (%s), want %d", len(body), resp.StatusCode, b, tc.want)
		}
	}
}

// TestServerQueueFull: a saturated queue sheds load with 429 Too Many
// Requests and a Retry-After hint.
func TestServerQueueFull(t *testing.T) {
	f := New(Config{Workers: 1, QueueDepth: 1})
	defer f.Close()
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	long := fmt.Sprintf(`{"design":"Rocket-2C","scale":0.1,"cycles":%d}`, 1_000_000)
	saw429 := false
	for i := 0; i < 8; i++ {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(long))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
			saw429 = true
			break
		}
	}
	if !saw429 {
		t.Error("queue never reported full")
	}
	if st := f.Stats(); st.JobsShed == 0 {
		t.Errorf("JobsShed = 0 after shedding")
	}
}

// TestServerReadyz: /readyz flips to 503 once the farm begins draining,
// and new submissions are refused with 503 while /healthz stays 200.
func TestServerReadyz(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	if resp, err := http.Get(srv.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz before drain: %d", resp.StatusCode)
		}
	}

	f.BeginDrain()

	if resp, err := http.Get(srv.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/readyz while draining: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz while draining: %d", resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"design":"Rocket-2C","scale":0.1,"cycles":50}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestServerLivez: /livez stays 200 through a drain — liveness means
// "don't restart me", readiness means "don't route new work to me",
// and a draining farm is exactly the live-but-not-ready case.
func TestServerLivez(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	check := func(when string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/livez")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/livez %s: %d, want 200", when, resp.StatusCode)
		}
	}
	check("before drain")
	f.BeginDrain()
	check("while draining")
}

// TestServerLongPoll pins GET /jobs/{id}?wait= and GET /jobs?live=1: a
// long poll answers with the terminal view once the job finishes, or
// with the current view when the wait elapses first; the live filter
// lists only non-terminal jobs; malformed parameters are 400s.
func TestServerLongPoll(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	submit := func(cycles int) string {
		t.Helper()
		resp, err := http.Post(srv.URL+"/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"design":"Rocket-2C","scale":0.1,"cycles":%d}`, cycles)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
		}
		return v.ID
	}
	get := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	short := submit(500)
	var v JobView
	if code := get("/jobs/"+short+"?wait=30s", &v); code != http.StatusOK || v.Status != StatusDone || v.Stats == nil {
		t.Fatalf("long poll on a short job: HTTP %d, %+v", code, v)
	}

	long := submit(50_000_000)
	start := time.Now()
	if code := get("/jobs/"+long+"?wait=20ms", &v); code != http.StatusOK || v.Status.Terminal() {
		t.Fatalf("long poll past its wait: HTTP %d, status %s", code, v.Status)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("a 20ms wait held the request for %s", el)
	}
	var all, live []JobView
	get("/jobs", &all)
	get("/jobs?live=1", &live)
	if len(all) != 2 || len(live) != 1 || live[0].ID != long {
		t.Errorf("GET /jobs lists %d, ?live=1 lists %v; want 2 and only %s", len(all), live, long)
	}
	if err := f.Cancel(long); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/jobs/" + short + "?wait=soon", "/jobs?live=maybe"} {
		if code := get(path, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s: HTTP %d, want 400", path, code)
		}
	}
	for in, want := range map[string]time.Duration{"": 0, "-5s": 0, "250ms": 250 * time.Millisecond, "1h": MaxWait} {
		req := httptest.NewRequest(http.MethodGet, "/jobs/x?wait="+in, nil)
		if got, err := ParseWait(req); err != nil || got != want {
			t.Errorf("ParseWait(%q) = %s, %v; want %s", in, got, err, want)
		}
	}
}
