package farm

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
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
// the compile cache from the persisted artifact bytes, without a
// recompile. A corrupted artifact is removed at recovery; the design
// then compiles on its first job, which re-persists the artifact for
// the restart after that.
func TestFarmDurableArtifactWarmRestart(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()

	// runOne opens the farm, checks how many entries recovery warmed,
	// runs spec once and reports whether the job hit the cache.
	runOne := func(what string, wantWarmed int64) bool {
		t.Helper()
		f, err := Open(durableCfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if rec := f.RecoveryStats(); rec == nil || rec.WarmEntries != wantWarmed {
			t.Fatalf("%s: recovery = %+v, want %d cache entries warmed", what, rec, wantWarmed)
		}
		j, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		v := waitDone(t, f, j.ID)
		if v.Status != StatusDone {
			t.Fatalf("%s: job %s (%s)", what, v.Status, v.Error)
		}
		return v.CacheHit
	}
	artifacts := func() []string {
		t.Helper()
		arts, err := filepath.Glob(filepath.Join(dir, "artifacts", "*.bin"))
		if err != nil {
			t.Fatal(err)
		}
		return arts
	}

	if runOne("cold start", 0) {
		t.Fatal("cold start: first job hit the cache")
	}
	arts := artifacts()
	if len(arts) != 1 {
		t.Fatalf("persisted artifacts = %v, want exactly 1", arts)
	}
	if !runOne("warm restart", 1) {
		t.Fatal("warm restart: job missed the cache, want a hit on the artifact-warmed entry")
	}

	// Corrupt the artifact bytes: recovery removes the file and warms
	// nothing; the job compiles and persists a fresh artifact.
	if err := os.WriteFile(arts[0], []byte("scribbled over"), 0o644); err != nil {
		t.Fatal(err)
	}
	if runOne("after corruption", 0) {
		t.Fatal("after corruption: job hit the cache, want a compile")
	}
	if got := artifacts(); len(got) != 1 {
		t.Fatalf("artifacts after the recompile = %v, want the one re-persisted", got)
	} else if data, err := os.ReadFile(got[0]); err != nil {
		t.Fatal(err)
	} else if _, _, err := DecodeArtifact(data); err != nil {
		t.Fatalf("re-persisted artifact does not decode: %v", err)
	}
	if !runOne("restart after the recompile", 1) {
		t.Fatal("restart after the recompile: job missed the cache")
	}
}

// TestFarmWarmsParentLayoutDataDir: a data dir written before the
// artifact became the only persisted form of a compile holds a
// cache/<key>.json metadata file beside each artifact. Recovery warms
// the same entries from the artifacts and leaves cache/ alone.
func TestFarmWarmsParentLayoutDataDir(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	var specs []JobSpec
	for _, variant := range []string{"Dedup", "ESSENT"} {
		spec := smallSpec()
		spec.Variant = variant
		specs = append(specs, spec)
		j, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if v := waitDone(t, f, j.ID); v.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", variant, v.Status, v.Error)
		}
	}
	f.Close()

	arts, err := filepath.Glob(filepath.Join(dir, "artifacts", "*.bin"))
	if err != nil || len(arts) != 2 {
		t.Fatalf("persisted artifacts = %v (err %v), want 2", arts, err)
	}
	cacheDir := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}
	metas := map[string]string{}
	for _, a := range arts {
		name := strings.TrimSuffix(filepath.Base(a), ".bin")
		meta := filepath.Join(cacheDir, name+".json")
		body := `{"design":"Rocket-2C","scale":0.1,"variant":"` + name[65:] + `","circuit_hash":"` + name[:64] + `","compile_ms":12.5}`
		if err := os.WriteFile(meta, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		metas[meta] = body
	}

	f2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if rec := f2.RecoveryStats(); rec == nil || rec.WarmEntries != 2 {
		t.Fatalf("recovery = %+v, want 2 cache entries warmed", rec)
	}
	for _, spec := range specs {
		j, err := f2.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if v := waitDone(t, f2, j.ID); v.Status != StatusDone || !v.CacheHit {
			t.Fatalf("%s after restart: %+v, want a done cache hit", spec.Variant, v)
		}
	}
	if st := f2.Stats(); st.Cache.Misses != 0 {
		t.Errorf("cache misses = %d, want 0", st.Cache.Misses)
	}
	for meta, body := range metas {
		if got, err := os.ReadFile(meta); err != nil || string(got) != body {
			t.Errorf("%s changed by recovery: %q (err %v)", meta, got, err)
		}
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
	if h, v, ok := splitArtifactKey(key); !ok || h != hash || v != "Verilator-NoDedup" {
		t.Errorf("splitArtifactKey(%q) = %q, %q, %v", key, h, v, ok)
	}
	for _, bad := range []string{"", hash, hash + "-", hash + "_Dedup"} {
		if _, _, ok := splitArtifactKey(bad); ok {
			t.Errorf("splitArtifactKey(%q) accepted a malformed key", bad)
		}
	}
}

// smallBoomCompiled compiles SmallBoom-2C at scale 0.1 under Dedup: a
// real Program with shared classes, fused kernels and class runs.
func smallBoomCompiled(tb testing.TB) *harness.Compiled {
	tb.Helper()
	c, err := DesignSpec{Design: "SmallBoom-2C", Scale: 0.1}.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return cv
}

// TestArtifactBytesStable: encoding one Program again gives the same
// bytes, so an artifact's bytes are a function of the compile alone.
// Gob writes maps in iteration order, so any map in the payload would
// make re-encodes differ.
func TestArtifactBytesStable(t *testing.T) {
	cv := smallBoomCompiled(t)
	first, err := EncodeArtifact(cv, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		again, err := EncodeArtifact(cv, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("encode %d differs from the first (%d vs %d bytes)", i, len(again), len(first))
		}
	}
}

// FuzzDecodeArtifact feeds raw bytes to DecodeArtifact. It must never
// panic, and an input it accepts must re-encode to identical bytes. The
// frame checksum is the guard against damage (gob itself is not
// hardened against adversarial input), so the fuzzer does not re-seal
// it: mutations exercise the frame checks, the seeds the full decode.
func FuzzDecodeArtifact(f *testing.F) {
	data, err := EncodeArtifact(smallBoomCompiled(f), 42*time.Millisecond)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cv, compileTime, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		again, err := EncodeArtifact(cv, compileTime)
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
}
