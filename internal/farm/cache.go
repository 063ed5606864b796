package farm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/harness"
)

// ErrCompilePanicked is wrapped into the error coalesced waiters see
// when the shared build they were waiting on — a compile, or the design
// elaboration in front of it — panicked. The panic is treated as
// transient (the entry is dropped and a retry rebuilds), so the farm
// retries waiters that hit it rather than failing their jobs.
var ErrCompilePanicked = errors.New("compile panicked")

// flight is one single-flight build, shared by the compile cache and
// the design store: the first requester of a key owns the flight and
// runs the build; everyone else waits on ready.
type flight[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

func newFlight[V any]() *flight[V] { return &flight[V]{ready: make(chan struct{})} }

// run executes build as the flight's owner and releases the waiters. A
// panicking build must not wedge the key: waiters fail with
// ErrCompilePanicked, drop (which unmaps the flight) runs before they
// are released so a retry starts a fresh build instead of blocking
// forever on ready, and the panic keeps unwinding (the farm's
// per-attempt recover turns it into a transient failure).
func (fl *flight[V]) run(build func() (V, error), drop func()) {
	defer func() {
		if r := recover(); r != nil {
			fl.err = fmt.Errorf("%w: %v", ErrCompilePanicked, r)
			drop()
			close(fl.ready)
			panic(r)
		}
	}()
	fl.val, fl.err = build()
	close(fl.ready)
}

// wait blocks until the owner finishes (true: val and err are set) or
// ctx expires first (false). An abandoned build keeps running and still
// lands in its cache.
func (fl *flight[V]) wait(ctx context.Context) bool {
	select {
	case <-fl.ready:
		return true
	case <-ctx.Done():
		return false
	}
}

// finished reports, without blocking, whether the build is over.
func (fl *flight[V]) finished() bool {
	select {
	case <-fl.ready:
		return true
	default:
		return false
	}
}

// CacheKey addresses one compiled Program: the same elaborated circuit
// compiled under the same variant is the same Program, no matter which
// job, generator config, or FIRRTL file produced it.
type CacheKey struct {
	Hash    circuit.Hash
	Variant harness.Variant
}

// cacheEntry is one compile, possibly still in flight. The first caller
// compiles; everyone else blocks on ready. Entries are never evicted —
// Programs are the farm's whole value and a farm serves a bounded design
// zoo — but Snapshot exposes enough to add eviction later.
type cacheEntry struct {
	*flight[*harness.Compiled]

	compileTime time.Duration
	hits        int64 // guarded by the cache mutex
	// warm marks entries installed from a compile artifact (the
	// persistent tier at startup, or a peer) before any job compiled
	// them; hits on them count as warm hits.
	warm bool
}

// CompileCache is the content-addressed compile cache: at most one
// compile ever runs per CacheKey, concurrent requesters for the same key
// coalesce onto the in-flight compile, and completed Programs are shared
// read-only by every subsequent job (see codegen.Program's sharing
// invariant).
type CompileCache struct {
	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry

	hits      int64
	misses    int64
	warmHits  int64         // hits served by warm-restart entries
	savedTime time.Duration // compile time avoided by hits
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{entries: map[CacheKey]*cacheEntry{}}
}

// Get returns the compiled Program for key, running compile exactly once
// per key (errors are cached too: a design that failed to compile fails
// fast on resubmit). hit reports whether this call avoided a compile.
// Waiters coalescing onto an in-flight compile abandon it when ctx
// expires; the compile itself keeps running and lands in the cache.
func (cc *CompileCache) Get(ctx context.Context, key CacheKey, compile func() (*harness.Compiled, error)) (cv *harness.Compiled, hit bool, err error) {
	cc.mu.Lock()
	e, ok := cc.entries[key]
	if ok {
		cc.hits++
		e.hits++
		if e.warm {
			cc.warmHits++
		}
		cc.mu.Unlock()
		if !e.wait(ctx) {
			return nil, false, ctx.Err()
		}
		cc.mu.Lock()
		cc.savedTime += e.compileTime
		cc.mu.Unlock()
		return e.val, true, e.err
	}
	e = &cacheEntry{flight: newFlight[*harness.Compiled]()}
	cc.entries[key] = e
	cc.misses++
	cc.mu.Unlock()

	e.run(func() (*harness.Compiled, error) {
		start := time.Now()
		cv, err := compile()
		e.compileTime = time.Since(start)
		return cv, err
	}, func() {
		cc.mu.Lock()
		delete(cc.entries, key)
		cc.mu.Unlock()
	})
	return e.val, false, e.err
}

// Has reports whether key has an entry (completed, failed, or still
// in flight). A true return means a Get will not start a new compile.
func (cc *CompileCache) Has(key CacheKey) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	_, ok := cc.entries[key]
	return ok
}

// Lookup returns the completed, successfully compiled entry for key
// without blocking (in-flight and failed entries report false), plus the
// compile time originally paid for it. The artifact exporter uses it to
// serve peers without ever waiting on someone else's compile.
func (cc *CompileCache) Lookup(key CacheKey) (*harness.Compiled, time.Duration, bool) {
	cc.mu.Lock()
	e, ok := cc.entries[key]
	cc.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	if !e.finished() || e.err != nil {
		return nil, 0, false // still compiling, or failed
	}
	return e.val, e.compileTime, true
}

// InstallWarm installs an already-compiled Program as a completed warm
// entry (the persistent tier's startup path). compileTime is the
// historical compile cost, credited to CompileMsSaved when jobs hit the
// entry. Reports false if the key is already present.
func (cc *CompileCache) InstallWarm(key CacheKey, cv *harness.Compiled, compileTime time.Duration) bool {
	e := &cacheEntry{flight: newFlight[*harness.Compiled](), compileTime: compileTime, warm: true}
	e.val = cv
	close(e.ready)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.entries[key]; ok {
		return false
	}
	cc.entries[key] = e
	return true
}

// CacheStats summarizes cache effectiveness.
type CacheStats struct {
	Entries int `json:"entries"`
	// Hits counts requests served without compiling (including requests
	// that coalesced onto an in-flight compile).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// WarmHits counts hits served by entries installed from a compile
	// artifact — compiles a cold restart or a cold node would have paid
	// on the job path.
	WarmHits int64 `json:"warm_hits"`
	// CompileMsSaved sums the compile time hits avoided.
	CompileMsSaved float64 `json:"compile_ms_saved"`
}

// Stats snapshots the counters.
func (cc *CompileCache) Stats() CacheStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return CacheStats{
		Entries:        len(cc.entries),
		Hits:           cc.hits,
		Misses:         cc.misses,
		WarmHits:       cc.warmHits,
		CompileMsSaved: float64(cc.savedTime) / float64(time.Millisecond),
	}
}

// CacheEntryView describes one cached Program for introspection.
type CacheEntryView struct {
	CircuitHash string  `json:"circuit_hash"`
	Variant     string  `json:"variant"`
	Hits        int64   `json:"hits"`
	CompileMs   float64 `json:"compile_ms"`
	// Warm marks entries installed from the persistent tier at startup.
	Warm bool `json:"warm,omitempty"`
	// Failed marks entries whose compile errored.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// Program shape (zero for failed or in-flight entries).
	Partitions int `json:"partitions,omitempty"`
	Kernels    int `json:"kernels,omitempty"`
	CodeBytes  int `json:"code_bytes,omitempty"`
	TableBytes int `json:"table_bytes,omitempty"`
	// Superinstruction fusion: static instruction counts before/after the
	// peephole pass, and the activation-weighted fused fraction.
	InstrsBeforeFusion int64   `json:"instrs_before_fusion,omitempty"`
	InstrsAfterFusion  int64   `json:"instrs_after_fusion,omitempty"`
	FusionFrac         float64 `json:"fusion_frac,omitempty"`
	// PackedSignals counts 1-bit cross-partition signals sharing packed
	// state words.
	PackedSignals int `json:"packed_signals,omitempty"`
}

// Snapshot lists every completed cache entry, most-hit first. In-flight
// compiles are skipped (Snapshot never blocks on them).
func (cc *CompileCache) Snapshot() []CacheEntryView {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	views := make([]CacheEntryView, 0, len(cc.entries))
	for key, e := range cc.entries {
		if !e.finished() {
			continue // still compiling
		}
		v := CacheEntryView{
			CircuitHash: key.Hash.String(),
			Variant:     string(key.Variant),
			Hits:        e.hits,
			CompileMs:   float64(e.compileTime) / float64(time.Millisecond),
			Warm:        e.warm,
		}
		if e.err != nil {
			v.Failed, v.Error = true, e.err.Error()
		} else {
			p := e.val.Program
			v.Partitions, v.Kernels = p.NumParts, len(p.Kernels)
			v.CodeBytes, v.TableBytes = p.UniqueCodeBytes, p.TableBytes
			v.InstrsBeforeFusion, v.InstrsAfterFusion = int64(p.Fusion.InstrsBefore), int64(p.Fusion.InstrsAfter)
			v.FusionFrac = p.Fusion.Frac()
			v.PackedSignals = p.PackedSignals
		}
		views = append(views, v)
	}
	sort.Slice(views, func(i, j int) bool {
		if views[i].Hits != views[j].Hits {
			return views[i].Hits > views[j].Hits
		}
		return views[i].CircuitHash < views[j].CircuitHash
	})
	return views
}
