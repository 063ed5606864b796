// Package faultinject is a deterministic, seeded fault-injection
// registry for the simulation farm. Production code declares named
// injection points (compile panic, compile stall, engine-step stall,
// worker crash, transient batch failure, queue pressure); a Registry
// built from a Config decides — reproducibly, from the seed and a
// per-point trial counter — which trials fire. A nil *Registry is the
// disabled state: every method is nil-receiver-safe and Fire reduces to
// a single pointer test, so the hooks are effectively free in
// production.
//
// Determinism contract: for a fixed seed, the n-th trial at a given
// point always makes the same fire/skip decision, regardless of which
// goroutine performs it. Under a concurrent farm the *assignment* of
// trials to jobs still depends on scheduling, but the fault budget and
// density are reproducible, which is what a seeded chaos test needs.
package faultinject

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one injection site threaded through the farm and engines.
type Point string

// The registered injection points. Each maps to a concrete failure mode
// with a documented recovery path (see DESIGN.md, "Failure model").
const (
	// CompilePanic panics inside the compile-cache's compile closure,
	// exercising the cache's panic-safety (waiters fail, entry dropped)
	// and the farm's transient-retry recovery.
	CompilePanic Point = "compile.panic"
	// CompileStall sleeps inside the compile closure, exercising
	// watchdog preemption of jobs stuck before their first cycle and
	// context-aware cache waiters.
	CompileStall Point = "compile.stall"
	// StepStall sleeps inside BatchEngine.Step via the OnStep hook, exercising stuck-simulation preemption mid-run.
	StepStall Point = "step.stall"
	// WorkerCrash panics at a cycle-chunk boundary of a running
	// simulation, exercising checkpoint-resume (the retry should restart
	// from the last checkpoint, not cycle 0).
	WorkerCrash Point = "worker.crash"
	// BatchTransient fails a coalesced batch attempt with a transient
	// error, exercising the per-lane re-run path (each lane retried
	// alone from its own checkpoint).
	BatchTransient Point = "batch.transient"
	// QueuePressure rejects a Submit as if the queue were full,
	// exercising load shedding (HTTP 429 + Retry-After) and client
	// retry behavior.
	QueuePressure Point = "queue.pressure"
)

// Points lists every registered injection point, in a stable order.
func Points() []Point {
	return []Point{CompilePanic, CompileStall, StepStall, WorkerCrash, BatchTransient, QueuePressure}
}

// Config describes an injection campaign.
type Config struct {
	// Seed drives every fire/skip decision; the same seed reproduces the
	// same per-point decision sequence.
	Seed uint64
	// Rates maps each armed point to its per-trial fire probability in
	// [0, 1]. Points absent from the map never fire.
	Rates map[Point]float64
	// Stall is how long injected stalls (compile.stall, step.stall)
	// sleep. Default 50ms.
	Stall time.Duration
	// MaxPerPoint caps how many times each point fires (0 = unlimited).
	// A finite budget lets a chaos test assert that every job still
	// reaches a successful terminal state once the budget is spent.
	MaxPerPoint int64
}

type pointState struct {
	// threshold is rate mapped onto the 53-bit output of the hash:
	// trial n fires iff hash53(seed, point, n) < threshold.
	threshold uint64
	trials    int64
	fired     int64
}

// Registry makes the fire/skip decisions. Safe for concurrent use; a
// nil *Registry is valid and never fires.
type Registry struct {
	seed  uint64
	stall time.Duration
	max   int64

	mu     sync.Mutex
	points map[Point]*pointState
}

// New builds a registry from cfg. Rates outside [0, 1] are clamped.
func New(cfg Config) *Registry {
	r := &Registry{
		seed:   cfg.Seed,
		stall:  cfg.Stall,
		max:    cfg.MaxPerPoint,
		points: map[Point]*pointState{},
	}
	if r.stall <= 0 {
		r.stall = 50 * time.Millisecond
	}
	for p, rate := range cfg.Rates {
		if rate <= 0 {
			continue
		}
		if rate > 1 {
			rate = 1
		}
		// rate 1 must always fire, so the threshold saturates above the
		// 53-bit hash range.
		r.points[p] = &pointState{threshold: uint64(rate * (1 << 53))}
	}
	return r
}

// Parse builds a registry from a comma-separated "point=rate" spec, the
// format the -fault-inject flag takes, e.g.
// "worker.crash=0.2,compile.stall=0.1". An empty spec returns nil (the
// disabled registry). Unknown point names are rejected.
func Parse(spec string, seed uint64, stall time.Duration, maxPerPoint int64) (*Registry, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	known := map[Point]bool{}
	for _, p := range Points() {
		known[p] = true
	}
	rates := map[Point]float64{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad spec entry %q (want point=rate)", part)
		}
		p := Point(strings.TrimSpace(name))
		if !known[p] {
			return nil, fmt.Errorf("faultinject: unknown point %q (have %v)", name, Points())
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("faultinject: bad rate %q for %s (want a probability in [0, 1])", val, name)
		}
		rates[p] = rate
	}
	return New(Config{Seed: seed, Rates: rates, Stall: stall, MaxPerPoint: maxPerPoint}), nil
}

// Armed reports whether the point can ever fire — the cheap guard for
// callers that would otherwise install a per-step hook.
func (r *Registry) Armed(p Point) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.points[p]
	return ok && (r.max <= 0 || st.fired < r.max)
}

// Fire records one trial at the point and reports whether the fault
// fires. Deterministic in (seed, point, trial index); nil registries
// never fire.
func (r *Registry) Fire(p Point) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.points[p]
	if !ok {
		return false
	}
	n := st.trials
	st.trials++
	if r.max > 0 && st.fired >= r.max {
		return false
	}
	if hash53(r.seed, p, n) >= st.threshold {
		return false
	}
	st.fired++
	return true
}

// Sleep blocks for the configured stall duration or until ctx is done —
// the body of the stall-type faults.
func (r *Registry) Sleep(ctx context.Context) {
	if r == nil {
		return
	}
	t := time.NewTimer(r.stall)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Stall returns the configured stall duration.
func (r *Registry) Stall() time.Duration {
	if r == nil {
		return 0
	}
	return r.stall
}

// Counts returns the fired count per point (points that fired at least
// one trial decision, fired or not), keyed by point name for metrics
// encoding. Nil registries return nil.
func (r *Registry) Counts() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.points))
	for p, st := range r.points {
		out[string(p)] = st.fired
	}
	return out
}

// String renders the armed points for logs, in stable order.
func (r *Registry) String() string {
	if r == nil {
		return "faultinject: disabled"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.points))
	for p := range r.points {
		names = append(names, string(p))
	}
	sort.Strings(names)
	return fmt.Sprintf("faultinject: seed %d, points %v", r.seed, names)
}

// hash53 maps (seed, point, trial) to a uniform 53-bit value via
// splitmix64 over an FNV-mixed key.
func hash53(seed uint64, p Point, trial int64) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	z := seed ^ h ^ uint64(trial)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) >> 11
}
