package durable

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openTemp(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func replayAll(t *testing.T, s *Store) ([]Record, ReplayInfo) {
	t.Helper()
	var recs []Record
	info, err := s.Replay(func(r Record) { recs = append(recs, r) })
	if err != nil {
		t.Fatal(err)
	}
	return recs, info
}

func sampleRecords() []Record {
	return []Record{
		{Type: RecAdmit, Job: "job-1", Spec: []byte(`{"design":"Rocket-2C","cycles":400}`)},
		{Type: RecStart, Job: "job-1"},
		{Type: RecCheckpoint, Job: "job-1", Cycle: 256},
		{Type: RecAdmit, Job: "job-2", Spec: []byte(`{"firrtl":"circuit x"}`)},
		{Type: RecFinish, Job: "job-1", Status: "done"},
		{Type: RecCancel, Job: "job-2", Error: "canceled"},
	}
}

// TestJournalRoundTrip: append, close, reopen, replay — every record
// comes back in order, byte-for-byte.
func TestJournalRoundTrip(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			s := openTemp(t, Options{Dir: dir, Fsync: policy})
			if _, info := replayAll(t, s); info.Records != 0 {
				t.Fatalf("fresh journal replayed %d records", info.Records)
			}
			want := sampleRecords()
			for _, r := range want {
				if err := s.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2 := openTemp(t, Options{Dir: dir, Fsync: policy})
			defer s2.Close()
			got, info := replayAll(t, s2)
			if info.DroppedBytes != 0 {
				t.Errorf("DroppedBytes = %d on a clean journal", info.DroppedBytes)
			}
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Type != want[i].Type || got[i].Job != want[i].Job ||
					got[i].Cycle != want[i].Cycle || got[i].Status != want[i].Status ||
					string(got[i].Spec) != string(want[i].Spec) {
					t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestJournalTruncatedTail: a torn final record (as a crash mid-write
// leaves behind) replays as the valid prefix, and the tail is repaired so
// new appends land on good data.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Fsync: FsyncAlways})
	for _, r := range sampleRecords() {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 12; cut++ {
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openTemp(t, Options{Dir: dir})
		recs, info := replayAll(t, s2)
		if len(recs) != len(sampleRecords())-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(recs), len(sampleRecords())-1)
		}
		if info.DroppedBytes == 0 {
			t.Fatalf("cut %d: no bytes reported dropped", cut)
		}
		// The torn tail was truncated: appending and replaying again must
		// yield prefix + new record.
		if err := s2.Append(Record{Type: RecStart, Job: "job-9"}); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		s3 := openTemp(t, Options{Dir: dir})
		recs3, info3 := replayAll(t, s3)
		if info3.DroppedBytes != 0 {
			t.Fatalf("cut %d: repaired journal still drops %d bytes", cut, info3.DroppedBytes)
		}
		if len(recs3) != len(recs)+1 || recs3[len(recs3)-1].Job != "job-9" {
			t.Fatalf("cut %d: post-repair replay %d records, want %d ending in job-9", cut, len(recs3), len(recs)+1)
		}
		s3.Close()
		// Restore the full journal for the next cut.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalCorruptRecord: a bit flip inside an earlier record drops it
// and everything after (never a phantom or reordered record), and the
// farm-visible result is the valid prefix.
func TestJournalCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Fsync: FsyncAlways})
	want := sampleRecords()
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, "journal.wal")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range []int{headerSize + frameSize + 2, len(orig) / 2, len(orig) - 3} {
		data := append([]byte(nil), orig...)
		data[off] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openTemp(t, Options{Dir: dir})
		recs, info := replayAll(t, s2)
		s2.Close()
		if info.DroppedBytes == 0 {
			t.Errorf("flip at %d: corruption not detected", off)
		}
		if len(recs) >= len(want) {
			t.Errorf("flip at %d: replayed %d records from a corrupt journal", off, len(recs))
		}
		for i, r := range recs {
			if r.Type != want[i].Type || r.Job != want[i].Job {
				t.Errorf("flip at %d: record %d is %+v, want prefix record %+v", off, i, r, want[i])
			}
		}
	}
}

// TestJournalIncompatibleVersion: a journal from a different format
// version refuses to open with ErrIncompatibleVersion (fail fast, no
// partial replay), and garbage refuses with ErrNotJournal.
func TestJournalIncompatibleVersion(t *testing.T) {
	dir := t.TempDir()
	hdr := encodeHeader(jobJournal)
	binary.LittleEndian.PutUint32(hdr[4:8], JournalVersion+7)
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(Options{Dir: dir}); !errors.Is(err, ErrIncompatibleVersion) {
		t.Errorf("OpenStore on future-version journal: %v, want ErrIncompatibleVersion", err)
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "journal.wal"), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(Options{Dir: dir2}); !errors.Is(err, ErrNotJournal) {
		t.Errorf("OpenStore on garbage journal: %v, want ErrNotJournal", err)
	}
}

// TestStoreUnwritableDir: a data dir that cannot be created (the path is
// an existing regular file — robust even when tests run as root) fails
// fast at open.
func TestStoreUnwritableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(Options{Dir: file}); err == nil {
		t.Error("OpenStore on a regular file succeeded, want error")
	}
}

// TestJournalCompact: compaction rewrites the journal to exactly the
// live records and appends continue after it.
func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Fsync: FsyncAlways})
	for _, r := range sampleRecords() {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	live := []Record{{Type: RecAdmit, Job: "job-3", Spec: []byte(`{}`)}}
	if err := s.Compact(live); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Type: RecStart, Job: "job-3"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTemp(t, Options{Dir: dir})
	defer s2.Close()
	recs, _ := replayAll(t, s2)
	if len(recs) != 2 || recs[0].Job != "job-3" || recs[1].Type != RecStart {
		t.Fatalf("post-compact replay = %+v, want [admit job-3, start job-3]", recs)
	}
}

// TestJournalFreezeAndAbandon: Freeze keeps already-appended records but
// refuses later appends with ErrFrozen; Abandon additionally drops buffered records
// (SIGKILL semantics under FsyncInterval's group commit).
func TestJournalFreezeAndAbandon(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, Fsync: FsyncAlways})
	if err := s.Append(Record{Type: RecAdmit, Job: "job-1", Spec: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	s.Freeze()
	if err := s.Append(Record{Type: RecFinish, Job: "job-1", Status: "done"}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append to a frozen store: err = %v, want ErrFrozen", err)
	}
	if err := s.SaveCheckpoint("job-1", []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTemp(t, Options{Dir: dir})
	recs, _ := replayAll(t, s2)
	s2.Close()
	if len(recs) != 1 || recs[0].Type != RecAdmit {
		t.Fatalf("frozen journal replayed %+v, want only the admit", recs)
	}
	if got := len((&Store{dir: dir}).LoadCheckpoint("job-1")); got != 0 {
		t.Errorf("frozen store wrote %d checkpoint files", got)
	}

	// Abandon under a long-interval group commit: the buffered record is
	// dropped, exactly like a SIGKILL before the fsync tick.
	dir2 := t.TempDir()
	s3 := openTemp(t, Options{Dir: dir2, Fsync: FsyncInterval, FsyncInterval: time.Hour})
	if err := s3.Append(Record{Type: RecAdmit, Job: "job-1", Spec: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	s3.Abandon()
	s3.Close()
	s4 := openTemp(t, Options{Dir: dir2})
	recs4, _ := replayAll(t, s4)
	s4.Close()
	if len(recs4) != 0 {
		t.Errorf("abandoned store persisted %d records, want 0", len(recs4))
	}
}

// TestCheckpointRotation: the previous checkpoint survives as .prev and
// loads as the second candidate; removal clears both.
func TestCheckpointRotation(t *testing.T) {
	s := openTemp(t, Options{})
	defer s.Close()
	if err := s.SaveCheckpoint("job-1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("job-1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	cands := s.LoadCheckpoint("job-1")
	if len(cands) != 2 || string(cands[0]) != "v2" || string(cands[1]) != "v1" {
		t.Fatalf("candidates = %q, want [v2 v1]", cands)
	}
	if jobs := s.Checkpoints(); len(jobs) != 1 || jobs[0] != "job-1" {
		t.Fatalf("Checkpoints() = %v", jobs)
	}
	s.RemoveCheckpoint("job-1")
	if got := s.LoadCheckpoint("job-1"); len(got) != 0 {
		t.Fatalf("after remove: %d candidates", len(got))
	}
}

// TestCacheEntries: save/load/remove round trip.
func TestCacheEntries(t *testing.T) {
	s := openTemp(t, Options{})
	defer s.Close()
	if err := s.SaveCacheEntry("abc-Dedup", []byte(`{"k":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCacheEntry("def-ESSENT", []byte(`{"k":2}`)); err != nil {
		t.Fatal(err)
	}
	ents := s.CacheEntries()
	if len(ents) != 2 || string(ents["abc-Dedup"]) != `{"k":1}` {
		t.Fatalf("CacheEntries = %v", ents)
	}
	s.RemoveCacheEntry("abc-Dedup")
	if ents := s.CacheEntries(); len(ents) != 1 {
		t.Fatalf("after remove: %v", ents)
	}
}
