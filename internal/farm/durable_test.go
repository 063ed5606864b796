package farm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dedupsim/internal/durable"
)

// durableCfg is the baseline durable-farm config for tests: fsync=always
// so every journaled record survives Kill deterministically.
func durableCfg(dir string) Config {
	return Config{
		Workers:         2,
		CheckpointEvery: 32,
		RetryBackoff:    time.Millisecond,
		DataDir:         dir,
		Fsync:           "always",
		DefaultTimeout:  60 * time.Second,
	}
}

func ckptFile(dir, id string) string {
	return filepath.Join(dir, "checkpoints", id+".ckpt")
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFarmDurableRestartResumes: a killed farm re-admits its unfinished
// job on reopen and resumes it from the persisted checkpoint — past
// cycle 0 — finishing bit-exact with an uninterrupted run. The
// recovered job's trace starts at a "recovered" instant and the reopened
// farm's /stats carries its latency block.
func TestFarmDurableRestartResumes(t *testing.T) {
	spec := smallSpec()
	spec.Cycles = 4000
	want := runReference(t, spec)

	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Workers = 1
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill once a checkpoint is on disk but the job hasn't finished.
	waitUntil(t, 30*time.Second, "first on-disk checkpoint", func() bool {
		_, serr := os.Stat(ckptFile(dir, j.ID))
		return serr == nil
	})
	if v := j.View(); v.Status.Terminal() {
		t.Fatalf("job finished before kill (%s); raise Cycles", v.Status)
	}
	f.Kill()

	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	rec := f2.RecoveryStats()
	if rec == nil {
		t.Fatal("no recovery stats after reopening a used data dir")
	}
	if rec.JobsRecovered != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", rec.JobsRecovered)
	}
	if rec.CheckpointsLoaded != 1 {
		t.Errorf("CheckpointsLoaded = %d, want 1", rec.CheckpointsLoaded)
	}
	if rec.JournalRecordsReplayed == 0 {
		t.Error("JournalRecordsReplayed = 0, want > 0")
	}
	v := waitDone(t, f2, j.ID)
	if v.Status != StatusDone {
		t.Fatalf("recovered job: %s (%s)", v.Status, v.Error)
	}
	if v.ResumedCycles == 0 {
		t.Error("recovered job resumed from cycle 0, want a checkpoint resume")
	}
	simResultsEqual(t, "recovered job", want.Stats, v.Stats)
	if st := f2.Stats(); st.CyclesSavedByResume == 0 {
		t.Error("CyclesSavedByResume = 0 after a checkpoint resume")
	}

	// The recovered job gets a fresh trace under its fleet-wide ID that
	// starts at the re-admission.
	j2, ok := f2.Job(j.ID)
	if !ok {
		t.Fatalf("recovered job %s not found", j.ID)
	}
	tv := j2.TraceView()
	if tv.TraceID == "" || tv.TraceID != j.Spec.TraceID {
		t.Errorf("recovered trace ID %q, want the pre-crash %q", tv.TraceID, j.Spec.TraceID)
	}
	var names []string
	recovered := false
	for _, e := range tv.Events {
		names = append(names, e.Name)
		recovered = recovered || (e.Name == "recovered" && e.Dur == 0)
	}
	if !recovered {
		t.Errorf("recovered job's trace has no %q instant: %v", "recovered", names)
	}

	// The reopened farm serves the /stats latency block.
	ts := httptest.NewServer(Handler(f2))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if _, ok := page["latency"]; !ok {
		t.Error("/stats after a restart has no latency block")
	}
}

// TestFarmKillRestartChaos is the durability capstone: a farm under a
// realistic job mix is killed (SIGKILL-equivalent: unsynced state
// dropped, no graceful cleanup) and restarted several times mid-load.
// Every admitted job must eventually finish with results bit-exact to a
// crash-free reference farm, at least one job must resume past cycle 0
// instead of recomputing, and at least one restart must serve a compile
// from the warm persistent cache.
func TestFarmKillRestartChaos(t *testing.T) {
	specs := chaosSpecs()

	// Crash-free reference results, keyed by spec index.
	ref := New(Config{Workers: 3, MaxLanes: 4})
	refIDs := make([]string, len(specs))
	for i, s := range specs {
		j, err := ref.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		refIDs[i] = j.ID
	}
	refViews := make([]JobView, len(specs))
	refVCDs := make(map[int][]byte)
	for i, id := range refIDs {
		refViews[i] = waitDone(t, ref, id)
		if refViews[i].Status != StatusDone {
			t.Fatalf("reference job %d: %s (%s)", i, refViews[i].Status, refViews[i].Error)
		}
		if specs[i].VCD {
			j, _ := ref.Job(id)
			refVCDs[i] = j.VCD()
		}
	}
	ref.Close()

	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Workers = 3
	cfg.MaxLanes = 4

	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specIdx := map[string]int{} // job ID -> spec index, stable across restarts
	for i, s := range specs {
		j, serr := f.Submit(s)
		if serr != nil {
			t.Fatal(serr)
		}
		specIdx[j.ID] = i
	}

	results := map[string]JobView{}
	vcds := map[string][]byte{}
	// sweep records every job that reached Done on this instance. Jobs
	// the kill left unfinished (or canceled) re-admit on the next Open.
	// Done is published only after its finish record is journaled, so
	// every Done job must have one.
	sweep := func(f *Farm) {
		finished := journaledFinishes(t, dir)
		for _, j := range f.Jobs() {
			v := j.View()
			if v.Status != StatusDone {
				continue
			}
			if _, seen := results[v.ID]; seen {
				continue
			}
			if !finished[v.ID] {
				t.Errorf("job %s is Done but its finish record is not in the journal", v.ID)
			}
			results[v.ID] = v
			if v.HasVCD {
				vcds[v.ID] = j.VCD()
			}
		}
	}

	var totalSaved, totalWarmHits, totalRecovered int64
	const rounds = 3
	for round := 0; round < rounds; round++ {
		// Kill only once some still-running job has a checkpoint on disk,
		// so each crash has recoverable progress to lose or resume, and
		// once a compile reached the warm tier. A job sharing an
		// in-flight compile can checkpoint before the compiling job
		// persists its artifact; a kill in that window loses the
		// artifact, and a restart has nothing to warm from.
		killable := func() bool {
			if ents, _ := filepath.Glob(filepath.Join(dir, "artifacts", "*.bin")); len(ents) == 0 {
				return false
			}
			for _, j := range f.Jobs() {
				v := j.View()
				if _, seen := results[v.ID]; seen || v.Status.Terminal() {
					continue
				}
				if _, serr := os.Stat(ckptFile(dir, v.ID)); serr == nil {
					return true
				}
			}
			return false
		}
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) && !killable() && f.outstanding() > 0 {
			time.Sleep(time.Millisecond)
		}
		f.Kill()
		sweep(f)
		st := f.Stats()
		totalSaved += st.CyclesSavedByResume
		totalWarmHits += st.Cache.WarmHits
		if len(results) == len(specs) {
			break
		}

		f, err = Open(cfg)
		if err != nil {
			t.Fatalf("restart %d: %v", round+1, err)
		}
		rec := f.RecoveryStats()
		if rec == nil {
			t.Fatalf("restart %d: no recovery stats", round+1)
		}
		totalRecovered += rec.JobsRecovered
		if int(rec.JobsRecovered)+len(results) != len(specs) {
			t.Errorf("restart %d: recovered %d jobs with %d done, want %d total",
				round+1, rec.JobsRecovered, len(results), len(specs))
		}
		t.Logf("restart %d: %+v", round+1, *rec)
	}

	// Final instance: let everything still outstanding run to completion.
	for id := range specIdx {
		if _, seen := results[id]; seen {
			continue
		}
		v := waitDone(t, f, id)
		if v.Status != StatusDone {
			t.Fatalf("job %s after restarts: %s (%s)", id, v.Status, v.Error)
		}
		results[id] = v
		if v.HasVCD {
			j, _ := f.Job(id)
			vcds[id] = j.VCD()
		}
	}
	st := f.Stats()
	totalSaved += st.CyclesSavedByResume
	totalWarmHits += st.Cache.WarmHits
	f.Close()

	// No job lost, every result bit-exact with the crash-free farm.
	for id, i := range specIdx {
		v, ok := results[id]
		if !ok {
			t.Fatalf("job %s (spec %d) lost across restarts", id, i)
		}
		simResultsEqual(t, fmt.Sprintf("chaos job %s (spec %d)", id, i), refViews[i].Stats, v.Stats)
		if specs[i].VCD && !bytes.Equal(vcds[id], refVCDs[i]) {
			t.Errorf("job %s: VCD diverged from crash-free run", id)
		}
	}
	if totalRecovered == 0 {
		t.Error("no restart recovered any job (kills landed after all work finished)")
	}
	if totalSaved == 0 {
		t.Error("no job resumed past cycle 0 across restarts (CyclesSavedByResume = 0)")
	}
	if totalWarmHits == 0 {
		t.Error("no compile served from the warm persistent cache after a restart")
	}
	t.Logf("chaos: %d jobs, %d recovered across restarts, %d cycles saved by resume, %d warm cache hits",
		len(specs), totalRecovered, totalSaved, totalWarmHits)
}

// journaledFinishes replays the journal in the data dir of a killed farm
// and returns the IDs of the jobs with a finish record.
func journaledFinishes(t *testing.T, dir string) map[string]bool {
	t.Helper()
	store, err := durable.OpenStore(durable.Options{Dir: dir, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	finished := map[string]bool{}
	if _, err := store.Replay(func(r durable.Record) {
		if r.Type == durable.RecFinish {
			finished[r.Job] = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	return finished
}

// TestFarmRecoveryTornJournalTail: bytes chopped off the journal's tail
// (a torn final append) do not poison recovery — the tail is truncated,
// the farm opens, and the job whose record was lost is simply re-run.
func TestFarmRecoveryTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, f, j.ID); v.Status != StatusDone {
		t.Fatalf("job: %s (%s)", v.Status, v.Error)
	}
	f.Close()

	// Tear the tail: the last record (the job's finish) loses its end.
	path := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer f2.Close()
	rec := f2.RecoveryStats()
	if rec.JournalBytesDropped == 0 {
		t.Error("JournalBytesDropped = 0, want the torn tail counted")
	}
	// The finish record was in the torn tail, so the job re-admits and
	// re-runs to Done (at-least-once, never lost).
	if rec.JobsRecovered != 1 {
		t.Errorf("JobsRecovered = %d, want 1 (finish record was torn off)", rec.JobsRecovered)
	}
	if v := waitDone(t, f2, j.ID); v.Status != StatusDone {
		t.Errorf("re-run after torn tail: %s (%s)", v.Status, v.Error)
	}
}

// TestFarmRecoveryCorruptJournalMiddle: a byte flipped inside an early
// record costs the records from that point on (they re-run) but never
// fabricates state or fails recovery.
func TestFarmRecoveryCorruptJournalMiddle(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, f, j.ID); v.Status != StatusDone {
		t.Fatalf("job: %s (%s)", v.Status, v.Error)
	}
	f.Close()

	path := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatalf("open after mid-journal corruption: %v", err)
	}
	defer f2.Close()
	if rec := f2.RecoveryStats(); rec.JournalBytesDropped == 0 {
		t.Error("JournalBytesDropped = 0, want the corrupt suffix counted")
	}
}

// TestFarmRecoveryCorruptCheckpoint: a byte-flipped checkpoint is
// rejected by checksum; recovery falls back to the rotated previous
// checkpoint, and with both damaged, to cycle 0 — in every case the job
// finishes bit-exact.
func TestFarmRecoveryCorruptCheckpoint(t *testing.T) {
	spec := smallSpec()
	spec.Cycles = 4000
	want := runReference(t, spec)

	for _, damagePrev := range []bool{false, true} {
		name := "newest-only"
		if damagePrev {
			name = "both"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableCfg(dir)
			cfg.Workers = 1
			f, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			j, err := f.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			// Wait for a rotation so both .ckpt and .ckpt.prev exist.
			waitUntil(t, 30*time.Second, "rotated checkpoint", func() bool {
				_, serr := os.Stat(ckptFile(dir, j.ID) + ".prev")
				return serr == nil
			})
			if v := j.View(); v.Status.Terminal() {
				t.Fatalf("job finished before kill (%s)", v.Status)
			}
			f.Kill()

			flip := func(path string) {
				data, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatal(rerr)
				}
				data[len(data)/3] ^= 0x04
				if werr := os.WriteFile(path, data, 0o644); werr != nil {
					t.Fatal(werr)
				}
			}
			flip(ckptFile(dir, j.ID))
			if damagePrev {
				flip(ckptFile(dir, j.ID) + ".prev")
			}

			f2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f2.Close()
			rec := f2.RecoveryStats()
			wantDropped, wantLoaded := int64(1), int64(1)
			if damagePrev {
				wantDropped, wantLoaded = 2, 0
			}
			if rec.CheckpointsCorruptDropped != wantDropped {
				t.Errorf("CheckpointsCorruptDropped = %d, want %d", rec.CheckpointsCorruptDropped, wantDropped)
			}
			if rec.CheckpointsLoaded != wantLoaded {
				t.Errorf("CheckpointsLoaded = %d, want %d", rec.CheckpointsLoaded, wantLoaded)
			}
			v := waitDone(t, f2, j.ID)
			if v.Status != StatusDone {
				t.Fatalf("job after checkpoint damage: %s (%s)", v.Status, v.Error)
			}
			if damagePrev && v.ResumedCycles != 0 {
				t.Errorf("ResumedCycles = %d, want 0 (all checkpoints corrupt)", v.ResumedCycles)
			}
			if !damagePrev && v.ResumedCycles == 0 {
				t.Error("ResumedCycles = 0, want a resume from the rotated previous checkpoint")
			}
			simResultsEqual(t, "job after checkpoint damage", want.Stats, v.Stats)
		})
	}
}

// TestFarmWarmRestartCache: compiles persist across a graceful restart —
// the reopened farm decodes the persisted artifact before taking jobs, and the
// first submission hits the warm entry instead of compiling inline.
func TestFarmWarmRestartCache(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, f, j.ID); v.Status != StatusDone {
		t.Fatalf("job: %s (%s)", v.Status, v.Error)
	}
	f.Close()

	f2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	rec := f2.RecoveryStats()
	if rec.WarmEntries != 1 {
		t.Fatalf("WarmEntries = %d, want 1", rec.WarmEntries)
	}
	if rec.JobsRecovered != 0 {
		t.Errorf("JobsRecovered = %d, want 0 after a graceful shutdown", rec.JobsRecovered)
	}
	j2, err := f2.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, f2, j2.ID)
	if v.Status != StatusDone {
		t.Fatalf("job on restarted farm: %s (%s)", v.Status, v.Error)
	}
	if !v.CacheHit {
		t.Error("job on restarted farm missed the cache, want a warm hit")
	}
	st := f2.Stats()
	if st.Cache.WarmHits == 0 {
		t.Error("Cache.WarmHits = 0, want the restarted compile served warm")
	}
	warm := false
	for _, e := range f2.Cache().Snapshot() {
		if e.Warm {
			warm = true
		}
	}
	if !warm {
		t.Error("no cache entry marked warm after restart")
	}
}

// TestFarmOpenFailFast: a farm that cannot persist what it promises must
// refuse to start, with an error naming the problem — not limp along
// and surface it mid-run.
func TestFarmOpenFailFast(t *testing.T) {
	// Data dir path occupied by a regular file (covers unwritable dirs
	// in a way that works even when tests run as root).
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{DataDir: file}); err == nil {
		t.Error("Open succeeded with a file as the data dir")
	} else if !strings.Contains(err.Error(), "data dir") {
		t.Errorf("error does not name the data dir problem: %v", err)
	}

	// Journal from an incompatible (future) format version.
	dir := t.TempDir()
	hdr := append([]byte("DSJL"), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(hdr[4:], durable.JournalVersion+1)
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{DataDir: dir})
	if err == nil {
		t.Fatal("Open succeeded on an incompatible journal version")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("error does not name the version problem: %v", err)
	}

	// Unknown fsync policy.
	if _, err := Open(Config{DataDir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Error("Open accepted an unknown fsync policy")
	}
}

// TestFarmJournalCompaction: reopening compacts the journal down to live
// jobs, so a long-lived farm's journal tracks outstanding work, not the
// full history of every job that ever ran.
func TestFarmJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		spec := smallSpec()
		spec.Seed = uint64(i + 1)
		j, serr := f.Submit(spec)
		if serr != nil {
			t.Fatal(serr)
		}
		if v := waitDone(t, f, j.ID); v.Status != StatusDone {
			t.Fatalf("job %d: %s (%s)", i, v.Status, v.Error)
		}
	}
	f.Close()
	before, err := os.Stat(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}

	f2, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	f2.Close()
	after, err := os.Stat(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("journal grew across an idle restart: %d -> %d bytes (compaction missing)",
			before.Size(), after.Size())
	}
}

// TestFarmRecoversLegacyJournal: a journal in the older vocabulary,
// which also journaled "start" per attempt and "ckpt" per checkpoint,
// recovers exactly the jobs whose admit has no later finish or cancel.
// The extra records are replayed and counted, and change nothing.
func TestFarmRecoversLegacyJournal(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.OpenStore(durable.Options{Dir: dir, Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(seed int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(
			`{"design":"Rocket-2C","scale":0.1,"variant":"Dedup","workload":"A","seed":%d,"cycles":200}`, seed))
	}
	for _, r := range []durable.Record{
		{Type: durable.RecAdmit, Job: "job-1", Spec: spec(1)},
		{Type: "start", Job: "job-1"},
		{Type: durable.RecCheckpoint, Job: "job-1", Cycle: 64},
		{Type: durable.RecAdmit, Job: "job-2", Spec: spec(2)},
		{Type: "start", Job: "job-2"},
		{Type: durable.RecFinish, Job: "job-2", Status: "done"},
		{Type: durable.RecAdmit, Job: "job-3", Spec: spec(3)},
		{Type: durable.RecCancel, Job: "job-3", Status: "canceled", Error: "canceled"},
		{Type: durable.RecAdmit, Job: "job-4", Spec: spec(4)},
	} {
		if err := store.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := f.RecoveryStats()
	if rec.JournalRecordsReplayed != 9 || rec.JournalBytesDropped != 0 || rec.JobsRecovered != 2 {
		t.Fatalf("recovery = %+v, want 9 records replayed, 0 bytes dropped, 2 jobs recovered", rec)
	}
	for _, id := range []string{"job-1", "job-4"} {
		if v := waitDone(t, f, id); v.Status != StatusDone {
			t.Fatalf("recovered %s: %s (%s)", id, v.Status, v.Error)
		}
	}
	for _, id := range []string{"job-2", "job-3"} {
		if _, ok := f.Job(id); ok {
			t.Errorf("terminal %s was re-admitted", id)
		}
	}
	j, err := f.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-5" {
		t.Errorf("first new job is %s, want job-5 (IDs continue past the journal's)", j.ID)
	}
}
