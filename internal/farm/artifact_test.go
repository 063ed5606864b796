package farm

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// exportedArtifact runs one job on a throwaway farm and exports its
// compile artifact, returning the encoded bytes plus the job's view for
// result comparison.
func exportedArtifact(t *testing.T, spec JobSpec) ([]byte, JobView) {
	t.Helper()
	f := New(Config{Workers: 1})
	defer f.Close()
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, f, j.ID)
	if v.Status != StatusDone {
		t.Fatalf("origin job: %s (%s)", v.Status, v.Error)
	}
	data, ok := f.ExportArtifact(v.CircuitHash, spec.Variant)
	if !ok {
		t.Fatalf("no exportable artifact for %s-%s", v.CircuitHash, spec.Variant)
	}
	return data, v
}

// TestArtifactRoundtrip: an exported artifact decodes back into a
// runnable Compiled with the variant and program intact, and every form
// of damage — truncation, bit flip, version drift — fails decode rather
// than yielding a partial Program.
func TestArtifactRoundtrip(t *testing.T) {
	data, _ := exportedArtifact(t, smallSpec())

	cv, compileTime, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode round-trip: %v", err)
	}
	if string(cv.Variant) != "Dedup" {
		t.Errorf("variant %q, want Dedup", cv.Variant)
	}
	if cv.Program == nil || len(cv.Program.Kernels) == 0 {
		t.Errorf("decoded artifact has no program kernels")
	}
	if cv.Dedup == nil || cv.Dedup.NumClasses == 0 {
		t.Errorf("decoded Dedup artifact lost its class count")
	}
	if compileTime <= 0 {
		t.Errorf("decoded compile time %v, want the origin's positive cost", compileTime)
	}
	// The compile cost is fixed-width, so it leaves the size alone.
	for _, d := range []time.Duration{0, time.Nanosecond, 1<<62 + 3} {
		again, err := EncodeArtifact(cv, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(data) {
			t.Errorf("compile cost %v: artifact is %d bytes, want %d", d, len(again), len(data))
		}
		if _, back, err := DecodeArtifact(again); err != nil || back != d {
			t.Errorf("compile cost %v came back as %v (%v)", d, back, err)
		}
	}

	if _, _, err := DecodeArtifact(data[:8]); !errors.Is(err, ErrArtifactCorrupt) {
		t.Errorf("truncated artifact: %v, want ErrArtifactCorrupt", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, _, err := DecodeArtifact(flipped); !errors.Is(err, ErrArtifactCorrupt) {
		t.Errorf("bit-flipped artifact: %v, want ErrArtifactCorrupt", err)
	}
	future := append([]byte(nil), data...)
	future[4] = ArtifactVersion + 1
	if _, _, err := DecodeArtifact(future); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version artifact: %v, want a version error", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, err := DecodeArtifact(bad); !errors.Is(err, ErrArtifactCorrupt) {
		t.Errorf("bad-magic artifact: %v, want ErrArtifactCorrupt", err)
	}
}

// TestFarmFetchArtifactHook: a cold farm with a FetchArtifact hook warms
// its cache from the fetched artifact instead of compiling — zero local
// compiles, a warm hit, and results identical to the origin's.
func TestFarmFetchArtifactHook(t *testing.T) {
	spec := smallSpec()
	data, origin := exportedArtifact(t, spec)

	var askedHash, askedVariant string
	f := New(Config{
		Workers: 1,
		FetchArtifact: func(ctx context.Context, hash, variant string) ([]byte, error) {
			askedHash, askedVariant = hash, variant
			return data, nil
		},
	})
	defer f.Close()

	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, f, j.ID)
	if v.Status != StatusDone {
		t.Fatalf("job on cold farm: %s (%s)", v.Status, v.Error)
	}
	if askedHash != origin.CircuitHash || askedVariant != spec.Variant {
		t.Errorf("hook asked for %s-%s, want %s-%s", askedHash, askedVariant, origin.CircuitHash, spec.Variant)
	}
	if !v.CacheHit {
		t.Errorf("job compiled locally despite a fetched artifact")
	}
	if !reflect.DeepEqual(v.Stats.Outputs, origin.Stats.Outputs) || v.Stats.Cycles != origin.Stats.Cycles {
		t.Errorf("imported-program run diverged from origin:\n got %+v\nwant %+v", v.Stats, origin.Stats)
	}

	st := f.Stats()
	if st.Cache.Misses != 0 {
		t.Errorf("cache misses = %d, want 0 (artifact import must replace the compile)", st.Cache.Misses)
	}
	if st.Cache.WarmHits != 1 {
		t.Errorf("warm hits = %d, want 1", st.Cache.WarmHits)
	}
	if st.ArtifactsFetched != 1 {
		t.Errorf("artifacts fetched = %d, want 1", st.ArtifactsFetched)
	}
}

// TestFarmFetchArtifactFallsBack: a hook that errors or returns corrupt
// bytes must never poison the job — the farm compiles locally as if no
// hook existed.
func TestFarmFetchArtifactFallsBack(t *testing.T) {
	for name, hook := range map[string]func(context.Context, string, string) ([]byte, error){
		"error":   func(context.Context, string, string) ([]byte, error) { return nil, errors.New("router down") },
		"corrupt": func(context.Context, string, string) ([]byte, error) { return []byte("not an artifact"), nil },
	} {
		t.Run(name, func(t *testing.T) {
			f := New(Config{Workers: 1, FetchArtifact: hook})
			defer f.Close()
			j, err := f.Submit(smallSpec())
			if err != nil {
				t.Fatal(err)
			}
			v := waitDone(t, f, j.ID)
			if v.Status != StatusDone {
				t.Fatalf("job: %s (%s)", v.Status, v.Error)
			}
			st := f.Stats()
			if st.Cache.Misses != 1 {
				t.Errorf("cache misses = %d, want 1 local compile fallback", st.Cache.Misses)
			}
			if st.ArtifactsFetched != 0 {
				t.Errorf("artifacts fetched = %d, want 0", st.ArtifactsFetched)
			}
		})
	}
}

// TestFarmDurableArtifactWarmRestart: with a data dir, a restart warms
// the compile cache from the persisted artifact bytes (the fast path —
// no recompile), and a corrupted artifact file silently degrades to the
// hash-verified recompile fallback.
func TestFarmDurableArtifactWarmRestart(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()

	f, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, f, j.ID); v.Status != StatusDone {
		t.Fatalf("first run: %s (%s)", v.Status, v.Error)
	}
	f.Close()

	arts, err := filepath.Glob(filepath.Join(dir, "artifacts", "*.bin"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("persisted artifacts = %v (err %v), want exactly 1", arts, err)
	}

	// Restart: the artifact fast path must warm the cache without
	// recompiling.
	f2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := f2.RecoveryStats()
	if rec == nil || rec.ArtifactsWarmedFromDisk != 1 || rec.CacheEntriesWarmed != 1 {
		t.Fatalf("recovery = %+v, want 1 cache entry warmed from 1 disk artifact", rec)
	}
	j2, err := f2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitDone(t, f2, j2.ID)
	if v2.Status != StatusDone || !v2.CacheHit {
		t.Fatalf("post-restart job: %+v, want a done cache hit", v2)
	}
	if st := f2.Stats(); st.Cache.Misses != 0 {
		t.Errorf("post-restart misses = %d, want 0 (warmed from artifact)", st.Cache.Misses)
	}
	f2.Close()

	// Corrupt the artifact bytes: the next restart must fall back to the
	// hash-verified recompile and still come up warm.
	if err := os.WriteFile(arts[0], []byte("scribbled over"), 0o644); err != nil {
		t.Fatal(err)
	}
	f3, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	rec = f3.RecoveryStats()
	if rec == nil || rec.ArtifactsWarmedFromDisk != 0 {
		t.Fatalf("recovery after corruption = %+v, want 0 artifact-path warms", rec)
	}
	if rec.CacheEntriesWarmed != 1 {
		t.Fatalf("recovery after corruption warmed %d entries, want 1 via recompile fallback", rec.CacheEntriesWarmed)
	}
	j3, err := f3.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v3 := waitDone(t, f3, j3.ID); v3.Status != StatusDone || !v3.CacheHit {
		t.Fatalf("post-corruption job: %+v, want a done cache hit", v3)
	}
}

// TestArtifactKeySplit pins the fleet-wide artifact naming: the hash is
// exactly 64 hex chars, so the key splits positionally even for variants
// that contain dashes themselves.
func TestArtifactKeySplit(t *testing.T) {
	hash := strings.Repeat("ab", 32)
	key := ArtifactKey(hash, "Verilator-NoDedup")
	if len(key) < 66 || key[64] != '-' {
		t.Fatalf("key %q does not split positionally at byte 64", key)
	}
	if got := key[:64]; got != hash {
		t.Errorf("hash part %q", got)
	}
	if got := key[65:]; got != "Verilator-NoDedup" {
		t.Errorf("variant part %q (dashed variants must survive)", got)
	}
}
