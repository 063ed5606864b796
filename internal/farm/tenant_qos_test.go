package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"dedupsim/internal/tenant"
)

// tenantSpec is smallSpec tagged with a tenant and seed.
func tenantSpec(tn string, cycles int, seed uint64) JobSpec {
	s := smallSpec()
	s.Cycles = cycles
	s.Seed = seed
	s.Tenant = tn
	return s
}

// TestFarmTenantFairness: a hog tenant floods the queue with 10x one
// tenant's work before anyone else submits — the FIFO worst case — and
// weighted fair-share must still deliver every backlogged tenant its
// weight share of simulated cycles. alice (weight 1) and bob (weight 2)
// submit after the flood; up to alice's last dispatch, the cycles each
// tenant was dispatched over the contended window must match the 1:2:1
// weights within ±10%, the hog must still hold most of its backlog (no
// FIFO head-of-line drain), and after everything completes the hog's
// p99 queue wait must dominate alice's — the hog paid for its flood,
// not the small tenants.
func TestFarmTenantFairness(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{Tenants: map[string]tenant.Limits{
		"alice": {Weight: 1},
		"bob":   {Weight: 2},
		"hog":   {Weight: 1},
	}})
	f := New(Config{Workers: 2, QueueDepth: 2048, Tenants: reg})
	defer f.Close()

	const cycles = 200
	submitTenant := func(tn string, n int, seed0 uint64) []string {
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			j, err := f.Submit(tenantSpec(tn, cycles, seed0+uint64(i)))
			if err != nil {
				t.Fatalf("%s job %d: %v", tn, i, err)
			}
			ids[i] = j.ID
		}
		return ids
	}

	hogIDs := submitTenant("hog", 400, 1000)
	aliceIDs := submitTenant("alice", 40, 2000)
	bobIDs := submitTenant("bob", 100, 3000)

	// The contended window opens once the last submission is in (the hog
	// ran alone, and then against alice alone, while the rest was being
	// enqueued) and closes when alice's last job is dispatched. Jobs are
	// counted by their dispatch time, the scheduler's decision: finish
	// times add each run's duration, which contention on a loaded host
	// stretches enough to carry a job across either edge. Both edges are
	// read off the jobs' own timestamps: a job lasts ~100 µs, so a test
	// goroutine racing the workers to snapshot Stats at "the moment alice
	// finished" would measure its own scheduling delay instead.
	dispatched := func(ids []string) []time.Time {
		at := make([]time.Time, len(ids))
		for i, id := range ids {
			v := waitDone(t, f, id)
			if v.Status != StatusDone {
				t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
			}
			at[i] = v.StartedAt
		}
		return at
	}
	aliceAt, bobAt, hogAt := dispatched(aliceIDs), dispatched(bobIDs), dispatched(hogIDs)
	last, _ := f.Job(bobIDs[len(bobIDs)-1])
	openAt, closeAt := last.View().CreatedAt, aliceAt[0]
	for _, at := range aliceAt {
		if at.After(closeAt) {
			closeAt = at
		}
	}
	consumed := func(at []time.Time) int64 {
		var n int64
		for _, ts := range at {
			if ts.After(openAt) && !ts.After(closeAt) {
				n += cycles
			}
		}
		return n
	}
	alice, bob, hog := consumed(aliceAt), consumed(bobAt), consumed(hogAt)
	if total := f.Stats().Tenants["alice"].Cycles; total != int64(len(aliceIDs)*cycles) {
		t.Fatalf("alice consumed %d cycles, want exactly %d", total, len(aliceIDs)*cycles)
	}
	if alice < int64(len(aliceIDs)*cycles)/2 {
		t.Fatalf("only %d of alice's cycles fall in the contended window; the queue drained during submission", alice)
	}
	within := func(got, want int64, tol float64, label string) {
		lo := int64(float64(want) * (1 - tol))
		hi := int64(float64(want) * (1 + tol))
		if got < lo || got > hi {
			t.Errorf("%s consumed %d cycles over the contended window, want %d +/- %.0f%%",
				label, got, want, 100*tol)
		}
	}
	// Weights 1:2:1 — while all three stay backlogged, hog matches alice
	// and bob runs at twice their rate.
	within(hog, alice, 0.10, "hog (weight 1)")
	within(bob, 2*alice, 0.10, "bob (weight 2)")
	hogLeft := 0
	for _, at := range hogAt {
		if at.After(closeAt) {
			hogLeft++
		}
	}
	if hogLeft < 200 {
		t.Errorf("hog backlog down to %d undispatched jobs when alice's last ran; FIFO drain suspected (want >= 200 of 400 left)", hogLeft)
	}

	end := f.Stats()
	aw, hw := end.Tenants["alice"].QueueWait, end.Tenants["hog"].QueueWait
	if aw == nil || hw == nil {
		t.Fatalf("missing queue-wait digests: alice=%v hog=%v", aw, hw)
	}
	if aw.P99Ms >= hw.P99Ms {
		t.Errorf("alice p99 wait %.1fms >= hog p99 wait %.1fms; the flood should pay its own wait", aw.P99Ms, hw.P99Ms)
	}
	t.Logf("fairness: alice=%d bob=%d hog=%d (window) | p99 wait alice=%.1fms hog=%.1fms",
		alice, bob, hog, aw.P99Ms, hw.P99Ms)
}

// TestFarmPriorityPreemption: with one worker occupied by a low-priority
// tenant, a high-priority arrival parks the running attempt — it is
// checkpointed and requeued, not killed — the urgent job runs
// immediately, and the victim later resumes from its checkpoint,
// finishing bit-exact with an uninterrupted run. A second urgent
// arrival during the victim's resumed run must NOT park it again: the
// victim tenant's park-rate bucket (burst 1) is empty, which is the
// anti-thrash bound.
func TestFarmPriorityPreemption(t *testing.T) {
	victim := tenantSpec("batch", 20000, 7)
	want := runReference(t, victim)

	reg := tenant.NewRegistry(tenant.Config{Tenants: map[string]tenant.Limits{
		"urgent": {Priority: 10},
	}})
	f := New(Config{Workers: 1, CheckpointEvery: 64, RetryBackoff: time.Millisecond, Tenants: reg})
	defer f.Close()

	jv, err := f.Submit(victim)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 30*time.Second, "victim running past its first checkpoint", func() bool {
		v := jv.View()
		return v.Status == StatusRunning && v.CheckpointCycle > 0
	})
	ju, err := f.Submit(tenantSpec("urgent", 200, 8))
	if err != nil {
		t.Fatal(err)
	}
	uv := waitDone(t, f, ju.ID)
	if uv.Status != StatusDone {
		t.Fatalf("urgent job: %s (%s)", uv.Status, uv.Error)
	}

	// Second urgent job mid-resume: the park bucket is spent, so it waits
	// its turn behind the victim instead of thrashing it.
	waitUntil(t, 30*time.Second, "victim resumed after the park", func() bool {
		v := jv.View()
		return v.Status == StatusRunning || v.Status.Terminal()
	})
	ju2, err := f.Submit(tenantSpec("urgent", 200, 9))
	if err != nil {
		t.Fatal(err)
	}

	vv := waitDone(t, f, jv.ID)
	if vv.Status != StatusDone {
		t.Fatalf("victim: %s (%s)", vv.Status, vv.Error)
	}
	uv2 := waitDone(t, f, ju2.ID)
	if uv2.Status != StatusDone {
		t.Fatalf("second urgent job: %s (%s)", uv2.Status, uv2.Error)
	}

	if !uv.FinishedAt.Before(vv.FinishedAt) {
		t.Error("urgent job finished after the victim; preemption did not free the worker")
	}
	if vv.ResumedCycles < 64 {
		t.Errorf("victim ResumedCycles = %d, want >= CheckpointEvery (parked attempts resume, not restart)", vv.ResumedCycles)
	}
	simResultsEqual(t, "parked victim", want.Stats, vv.Stats)

	st := f.Stats()
	if st.JobsParked != 1 {
		t.Errorf("JobsParked = %d, want exactly 1 (park-rate bound must refuse the second)", st.JobsParked)
	}
	if st.Tenants["batch"].Parked != 1 {
		t.Errorf("tenant batch Parked = %d, want 1", st.Tenants["batch"].Parked)
	}
	if st.CyclesSavedByResume == 0 {
		t.Error("CyclesSavedByResume = 0; the parked attempt restarted from cycle 0")
	}
	t.Logf("preemption: victim resumed at %d, cycles saved %d", vv.ResumedCycles, st.CyclesSavedByResume)
}

// TestFarmTenantKillRestart: tenant identity is part of the journaled
// spec, so a SIGKILL'd farm recovers its unfinished jobs under the
// right tenant, resumes them from the persisted checkpoint, and keeps
// accounting their cycles to that tenant.
func TestFarmTenantKillRestart(t *testing.T) {
	spec := tenantSpec("research", 4000, 11)
	want := runReference(t, spec)

	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Workers = 1
	cfg.Tenants = tenant.NewRegistry(tenant.Config{Tenants: map[string]tenant.Limits{
		"research": {Weight: 3},
	}})
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 30*time.Second, "first on-disk checkpoint", func() bool {
		_, serr := os.Stat(ckptFile(dir, j.ID))
		return serr == nil
	})
	if v := j.View(); v.Status.Terminal() {
		t.Fatalf("job finished before kill (%s); raise Cycles", v.Status)
	}
	f.Kill()

	cfg.Tenants = tenant.NewRegistry(tenant.Config{Tenants: map[string]tenant.Limits{
		"research": {Weight: 3},
	}})
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	j2, ok := f2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s not recovered", j.ID)
	}
	if j2.Spec.Tenant != "research" {
		t.Fatalf("recovered job tenant = %q, want %q", j2.Spec.Tenant, "research")
	}
	v := waitDone(t, f2, j.ID)
	if v.Status != StatusDone {
		t.Fatalf("recovered job: %s (%s)", v.Status, v.Error)
	}
	if v.ResumedCycles == 0 {
		t.Error("recovered job resumed from cycle 0, want a checkpoint resume")
	}
	simResultsEqual(t, "recovered tenant job", want.Stats, v.Stats)
	st := f2.Stats()
	tv, ok := st.Tenants["research"]
	if !ok {
		t.Fatal("tenant research absent from stats after recovery")
	}
	if tv.Cycles == 0 {
		t.Error("tenant research credited 0 cycles after its recovered job completed")
	}
	if tv.Weight != 3 {
		t.Errorf("tenant research weight = %d after restart, want 3", tv.Weight)
	}
}

// TestFarmTenantValidation: Submit canonicalizes tenant names and
// rejects unusable ones; a spec journaled before tenancy (no tenant
// field) decodes into the default tenant.
func TestFarmTenantValidation(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close()

	for _, bad := range []string{"   ", strings.Repeat("x", tenant.MaxNameLen+1), "ten\x01ant"} {
		s := smallSpec()
		s.Tenant = bad
		if _, err := f.Submit(s); err == nil {
			t.Errorf("Submit accepted tenant %q, want an error", bad)
		}
	}

	s := smallSpec()
	s.Tenant = "  padded  "
	j, err := f.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	if j.Spec.Tenant != "padded" {
		t.Errorf("tenant %q not canonicalized, got %q", s.Tenant, j.Spec.Tenant)
	}

	// Pre-tenancy journal record: spec JSON without a tenant field.
	var old JobSpec
	if err := json.Unmarshal([]byte(`{"design":"Rocket-2C","scale":0.1,"workload":"A","cycles":200}`), &old); err != nil {
		t.Fatal(err)
	}
	j2, err := f.Submit(old)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Spec.Tenant != tenant.Default {
		t.Errorf("tenantless spec admitted as %q, want %q", j2.Spec.Tenant, tenant.Default)
	}
}

// TestFarmTenantHTTP: the HTTP tier's tenant contract — X-Tenant fills
// an unset spec tenant, invalid names are a 400, and a tenant over its
// admission rate gets a 429 whose Retry-After is its own refill delay
// (not the global "1") while other tenants keep submitting.
func TestFarmTenantHTTP(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{Tenants: map[string]tenant.Limits{
		"metered": {RatePerSec: 0.002, Burst: 1},
	}})
	f := New(Config{Workers: 1, Tenants: reg})
	defer f.Close()
	ts := httptest.NewServer(Handler(f))
	defer ts.Close()

	post := func(body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decodeView := func(resp *http.Response) JobView {
		t.Helper()
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return v
	}

	// X-Tenant header fills an unset tenant; the body field wins when set.
	resp := post(`{"design":"Rocket-2C","scale":0.1,"cycles":200}`, map[string]string{"X-Tenant": "ci"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("header-tenant submit: HTTP %d", resp.StatusCode)
	}
	if v := decodeView(resp); v.Spec.Tenant != "ci" {
		t.Errorf("X-Tenant submit recorded tenant %q, want %q", v.Spec.Tenant, "ci")
	}
	resp = post(`{"design":"Rocket-2C","scale":0.1,"cycles":200,"tenant":"body-wins"}`, map[string]string{"X-Tenant": "ci"})
	if v := decodeView(resp); v.Spec.Tenant != "body-wins" {
		t.Errorf("spec tenant overridden by header: got %q, want body-wins", v.Spec.Tenant)
	}

	// Invalid name: 400, not 500 and not a silent default.
	resp = post(`{"design":"Rocket-2C","scale":0.1,"cycles":200,"tenant":"`+strings.Repeat("x", tenant.MaxNameLen+1)+`"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized tenant: HTTP %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Quota: burst 1 admits one job; the second is throttled with the
	// tenant's own refill delay (1/0.002 = 500s, far from the generic 1s).
	resp = post(`{"design":"Rocket-2C","scale":0.1,"cycles":200,"tenant":"metered"}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first metered submit: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post(`{"design":"Rocket-2C","scale":0.1,"cycles":200,"tenant":"metered"}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second metered submit: HTTP %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 400 {
		t.Errorf("Retry-After = %q, want the tenant's own refill delay (~500s)", resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	// The throttle is per tenant, and distinct from queue-full shedding.
	var throttled *ThrottledError
	_, serr := f.Submit(tenantSpec("metered", 200, 1))
	if !errors.As(serr, &throttled) {
		t.Fatalf("direct Submit error = %v, want *ThrottledError", serr)
	}
	if errors.Is(serr, ErrQueueFull) {
		t.Error("ThrottledError must not satisfy errors.Is(_, ErrQueueFull); retry loops would mistake quota for queue pressure")
	}
	if throttled.RetryAfter <= 0 {
		t.Errorf("ThrottledError.RetryAfter = %v, want > 0", throttled.RetryAfter)
	}
	resp = post(`{"design":"Rocket-2C","scale":0.1,"cycles":200,"tenant":"unmetered"}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("unmetered tenant submit during metered throttle: HTTP %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	if st := f.Stats(); st.Tenants["metered"].Shed < 2 {
		t.Errorf("metered Shed = %d, want >= 2", st.Tenants["metered"].Shed)
	}

	// The per-tenant block reaches /statusz and /stats.
	sresp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	sb.ReadFrom(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(sb.String(), "tenants:") || !strings.Contains(sb.String(), "metered") {
		t.Errorf("/statusz missing the tenant block:\n%s", sb.String())
	}
	_ = fmt.Sprint() // keep fmt imported if assertions above change
}
