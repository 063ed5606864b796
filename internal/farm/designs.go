package farm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"dedupsim/internal/circuit"
	"dedupsim/internal/lru"
)

// DesignKey is a design spec's content address: a fixed-size digest that
// stands in for the (possibly tens of KB of) spec wherever specs are
// compared or used as map keys — the farm's design store and batch
// coalescing, the router's route-key memo. Two specs with equal keys
// elaborate to the same circuit; the converse does not hold (a comment
// changes the key, not the circuit — that is the structural hash's job).
type DesignKey [sha256.Size]byte

// Key digests the design name, the normalised scale (0 means 1.0, so
// both spell the same design) and the FIRRTL text.
func (d DesignSpec) Key() DesignKey {
	scale := d.Scale
	if scale == 0 {
		scale = 1.0
	}
	// The name is length-prefixed so no (name, text) pair can be
	// re-split into another pair with the same byte stream.
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], math.Float64bits(scale))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(d.Design)))
	h := sha256.New()
	h.Write(hdr[:])
	h.Write([]byte(d.Design))
	// Fed through a stack buffer: []byte(text) would put a copy of the
	// whole text on the heap per job.
	var buf [1024]byte
	for text := d.FIRRTL; len(text) > 0; {
		n := copy(buf[:], text)
		h.Write(buf[:n])
		text = text[n:]
	}
	var k DesignKey
	h.Sum(k[:0])
	return k
}

// design is one elaborated design with its structural hash: everything
// about a job that depends on the design alone. Shared read-only by
// every job of the design (see DESIGN.md, "Circuit sharing invariant").
type design struct {
	c    *circuit.Circuit
	hash circuit.Hash
}

// maxDesigns bounds the design store. A farm serves a small design zoo,
// so the cap only matters to a daemon fed an endless stream of distinct
// texts; an evicted design is rebuilt on its next use.
const maxDesigns = 64

// designStore interns designs by content: one parse, one elaboration and
// one structural hash per DesignKey, single-flight, shared by every job
// of that design afterwards. It is the step in front of the compile
// cache — which shares Programs per structural hash — and exists so a
// job whose design is resident pays for neither. Bounded (maxDesigns,
// LRU); failed builds are not retained, so a bad spec fails each job
// with its own fresh error and a transient failure is not sticky.
type designStore struct {
	mu      sync.Mutex
	flights *lru.Cache[DesignKey, *flight[design]]
	hits    int64
	misses  int64
}

func newDesignStore() *designStore {
	return &designStore{flights: lru.New[DesignKey, *flight[design]](maxDesigns)}
}

// get returns the design for key, running build (and hashing its result)
// at most once per resident key; hit reports whether this call avoided
// the build. Requesters arriving mid-build wait for it, or abandon the
// wait when ctx expires.
func (s *designStore) get(ctx context.Context, key DesignKey, build func() (*circuit.Circuit, error)) (d design, hit bool, err error) {
	s.mu.Lock()
	fl, ok := s.flights.Get(key)
	if ok {
		s.hits++
		s.mu.Unlock()
		if !fl.wait(ctx) {
			return design{}, false, ctx.Err()
		}
		return fl.val, true, fl.err
	}
	fl = newFlight[design]()
	s.flights.Put(key, fl)
	s.misses++
	s.mu.Unlock()

	// drop unmaps this flight (and only this one: after an eviction the
	// key may already belong to a successor).
	drop := func() {
		s.mu.Lock()
		if cur, ok := s.flights.Get(key); ok && cur == fl {
			s.flights.Remove(key)
		}
		s.mu.Unlock()
	}
	fl.run(func() (design, error) {
		c, err := build()
		if err != nil {
			drop()
			return design{}, err
		}
		return design{c: c, hash: c.StructuralHash()}, nil
	}, drop)
	return fl.val, false, fl.err
}

// DesignStoreStats summarizes the design store.
type DesignStoreStats struct {
	// Hits counts jobs served a resident (or in-flight) design: no parse,
	// no elaboration, no structural hash. Misses counts builds.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts designs pushed out by the cap; Resident is how
	// many are held now.
	Evictions int64 `json:"evictions"`
	Resident  int   `json:"resident"`
}

func (s *designStore) stats() DesignStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return DesignStoreStats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.flights.Evictions(),
		Resident:  s.flights.Len(),
	}
}

// design resolves a job's design through the store — the only place the
// farm elaborates or hashes a design.
func (f *Farm) design(ctx context.Context, key DesignKey, spec DesignSpec) (design, bool, error) {
	return f.designs.get(ctx, key, spec.Build)
}
