package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dedupsim/internal/durable"
	"dedupsim/internal/obs"
)

// Handler returns the farm's HTTP/JSON API:
//
//	POST /jobs              submit a JobSpec, returns the JobView
//	GET  /jobs              list jobs (most recent last; ?live=1 lists
//	                        only non-terminal jobs)
//	GET  /jobs/{id}         job status + results (?wait=<duration> long-
//	                        polls: answers once the job is terminal or the
//	                        wait, capped at MaxWait, elapses)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /jobs/{id}/vcd     fetch the captured waveform (spec.vcd jobs)
//	GET  /jobs/{id}/checkpoint  newest encoded checkpoint (fleet migration)
//	GET  /jobs/{id}/trace   lifecycle trace: Chrome trace_event JSON for
//	                        Perfetto (?format=events for the raw events)
//	GET  /trace             every retained job on one shared timeline
//	GET  /artifacts/{key}   fetch-by-hash compile artifact ({hash}-{variant})
//	GET  /stats             farm metrics (JSON, incl. latency quantiles)
//	GET  /statusz           farm metrics (text dump)
//	GET  /metrics           Prometheus text-format exposition
//	GET  /cache             compile-cache introspection
//	GET  /healthz           liveness probe (legacy alias of /livez)
//	GET  /livez             liveness probe (200 while the process serves)
//	GET  /readyz            readiness probe (503 while draining)
//
// Admission control: a full queue yields 429 Too Many Requests with a
// Retry-After hint, and a draining farm yields 503 so load balancers
// stop routing to it. A POST /jobs body over durable.MaxRecordLen bytes
// yields 413.
//
// Handlers are safe for concurrent use; all state lives in the Farm.
func Handler(f *Farm) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if code, err := DecodeBody(w, r, &spec); err != nil {
			httpError(w, code, fmt.Errorf("bad job spec: %w", err))
			return
		}
		// X-Trace-Id propagates the submitter's trace ID (the router sets
		// it when forwarding); an ID already in the spec wins so a
		// migrated job keeps its original identity. X-Tenant works the
		// same way: the fleet front door mints it, and a tenant already
		// in the spec (migration, journal replay) wins.
		if spec.TraceID == "" {
			spec.TraceID = r.Header.Get("X-Trace-Id")
		}
		if spec.Tenant == "" {
			spec.Tenant = r.Header.Get("X-Tenant")
		}
		j, err := f.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			var throttled *ThrottledError
			switch {
			case errors.As(err, &throttled):
				// Per-tenant quota: Retry-After is this tenant's own token
				// refill time, not a global constant.
				code = http.StatusTooManyRequests
				w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(throttled.RetryAfter), 10))
			case errors.Is(err, ErrQueueFull):
				// Load shedding: the client should back off and retry.
				code = http.StatusTooManyRequests
				w.Header().Set("Retry-After", "1")
			case errors.Is(err, ErrDraining), strings.Contains(err.Error(), "closed"):
				code = http.StatusServiceUnavailable
			}
			httpError(w, code, err)
			return
		}
		w.Header().Set("X-Trace-Id", j.Spec.TraceID)
		writeJSON(w, http.StatusAccepted, j.View())
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		live := false
		if s := r.URL.Query().Get("live"); s != "" {
			var err error
			if live, err = strconv.ParseBool(s); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad live filter %q", s))
				return
			}
		}
		views := []JobView{}
		for _, j := range f.Jobs() {
			if live {
				select {
				case <-j.Done():
					continue // terminal: skip building a view only to drop it
				default:
				}
			}
			if v := j.View(); !live || !v.Status.Terminal() {
				views = append(views, v)
			}
		}
		writeJSON(w, http.StatusOK, views)
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		wait, err := ParseWait(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		j, ok := f.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-j.Done():
			case <-t.C:
			case <-r.Context().Done():
			}
			t.Stop()
		}
		writeJSON(w, http.StatusOK, j.View())
	})

	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := f.Cancel(r.PathValue("id")); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		j, _ := f.Job(r.PathValue("id"))
		writeJSON(w, http.StatusOK, j.View())
	})

	mux.HandleFunc("GET /jobs/{id}/vcd", func(w http.ResponseWriter, r *http.Request) {
		j, ok := f.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		vcd := j.VCD()
		if len(vcd) == 0 {
			httpError(w, http.StatusNotFound, errors.New("job captured no VCD (submit with \"vcd\": true)"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(vcd)
	})

	mux.HandleFunc("GET /jobs/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		j, ok := f.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		data := j.CheckpointBytes()
		if len(data) == 0 {
			httpError(w, http.StatusNotFound, errors.New("job has no checkpoint"))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})

	// Fetch-by-hash: a peer (or the router) asks for a compiled Program
	// by its fleet-wide name, {structural-hash}-{variant} (ArtifactKey).
	mux.HandleFunc("GET /artifacts/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		hash, variant, ok := splitArtifactKey(key)
		if !ok {
			httpError(w, http.StatusBadRequest, errors.New("artifact key must be {64-hex-hash}-{variant}"))
			return
		}
		data, ok := f.ExportArtifact(hash, variant)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no compiled artifact %q", key))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})

	// Lifecycle traces. The default rendering is Chrome trace_event JSON
	// (open it in Perfetto or chrome://tracing); ?format=events returns
	// the raw event list, which the fleet router consumes when merging a
	// worker trace into its own timeline.
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		j, ok := f.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		view := j.TraceView()
		if r.URL.Query().Get("format") == "events" {
			writeJSON(w, http.StatusOK, view)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, view)
	})

	// All retained jobs on one timeline (bounded by Config.RetainJobs).
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		var views []obs.TraceView
		for _, j := range f.Jobs() {
			views = append(views, j.TraceView())
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, views...)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		f.WriteProm(w)
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Stats())
	})

	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		f.WriteStats(w)
	})

	mux.HandleFunc("GET /cache", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Stats   CacheStats       `json:"stats"`
			Entries []CacheEntryView `json:"entries"`
		}{f.cache.Stats(), f.cache.Snapshot()})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	// Liveness vs readiness: /livez answers 200 for as long as the
	// process can serve HTTP at all — a restart-the-pod signal. /readyz
	// answers 503 while draining so load balancers stop routing new work
	// here without the orchestrator killing in-flight jobs. A draining
	// farm is intentionally live-but-not-ready.
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !f.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})

	return mux
}

// MaxWait caps a long-poll's ?wait=, so no client can pin a handler
// (and the connection under it) for longer.
const MaxWait = 30 * time.Second

// ParseWait reads a GET's ?wait=<duration> long-poll bound: 0 when
// absent, clamped to [0, MaxWait]. The farm's and the router's
// GET /jobs/{id} both use it.
func ParseWait(r *http.Request) (time.Duration, error) {
	s := r.URL.Query().Get("wait")
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad wait %q: %w", s, err)
	}
	return min(max(d, 0), MaxWait), nil
}

// DecodeBody decodes a JSON request body into v, rejecting unknown
// fields. A body over durable.MaxRecordLen bytes, more than one journal
// record can hold, fails with status 413; any other decode error with 400.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) (status int, err error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, durable.MaxRecordLen))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, err
	}
	return 0, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// retryAfterSeconds renders a refill delay as a whole-second Retry-After
// value, rounding up and never below 1 (clients treat 0 as "retry now",
// which would hammer an empty bucket).
func retryAfterSeconds(d time.Duration) int64 {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
