package durable

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
		{Type: RecAdmit, Job: "job-3", Spec: []byte(`{"design":"SmallBoom-4C","scale":0.3}`)},
		{Type: RecCheckpoint, Job: "job-1", Cycle: 256},
		{Type: RecAdmit, Job: "job-2", Spec: []byte(`{"firrtl":"circuit x"}`)},
		{Type: RecFinish, Job: "job-1", Status: "done"},
		{Type: RecCancel, Job: "job-2", Error: "canceled"},
	}
}

func samplePlacementRecords() []Record {
	return []Record{
		{Type: RecNode, Node: "n1", Addr: "http://127.0.0.1:8081"},
		{Type: RecNode, Node: "n2", Addr: "http://127.0.0.1:8082"},
		{Type: RecAdmit, Job: "fj-1", Spec: []byte(`{"cycles":2000,"design":"Rocket-2C"}`), Key: "abcd1234/Dedup"},
		{Type: RecPlace, Job: "fj-1", Node: "n1", Remote: "job-1"},
		{Type: RecPlace, Job: "fj-2", Node: "n2", Remote: "job-1", Spilled: true},
		{Type: RecNodeDead, Node: "n1"},
		{Type: RecOrphan, Job: "fj-1", Node: "n1"},
		{Type: RecMigrate, Job: "fj-1", Node: "n2", From: "n1", Remote: "job-2", Cycle: 1024},
		{Type: RecFinish, Job: "fj-1", Status: "done"},
	}
}

// encodeBody frames recs back to back, as a journal body.
func encodeBody(t testing.TB, recs []Record) []byte {
	t.Helper()
	var body []byte
	for _, r := range recs {
		buf, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, buf...)
	}
	return body
}

// TestJournalGoldenBytes pins both file headers and one record of every
// type either journal has ever written, including the farm's retired
// "start" record, to the exact bytes the format has always had. A
// change here would strand every journal already on disk.
func TestJournalGoldenBytes(t *testing.T) {
	for _, h := range []struct {
		kind journalKind
		hex  string
	}{
		{jobJournal, "44534a4c01000000"},
		{placementJournal, "4453504c01000000"},
	} {
		if got := hex.EncodeToString(encodeHeader(h.kind)); got != h.hex {
			t.Errorf("%s header = %s, want %s", h.kind.file, got, h.hex)
		}
	}
	for _, g := range []struct {
		rec Record
		hex string
	}{
		// Job journal.
		{Record{Type: RecAdmit, Job: "job-1", Spec: []byte(`{"design":"Rocket-2C","cycles":400}`)},
			"46000000bf7eaf9b7b2274223a2261646d6974222c226a6f62223a226a6f622d31222c2273706563223a7b2264657369676e223a22526f636b65742d3243222c226379636c6573223a3430307d7d"},
		{Record{Type: "start", Job: "job-1"},
			"1b0000002dd9414f7b2274223a227374617274222c226a6f62223a226a6f622d31227d"},
		{Record{Type: RecCheckpoint, Job: "job-1", Cycle: 256},
			"26000000b900951b7b2274223a22636b7074222c226a6f62223a226a6f622d31222c226379636c65223a3235367d"},
		{Record{Type: RecFinish, Job: "job-1", Status: "failed", Error: "boom"},
			"3d00000024e085837b2274223a2266696e697368222c226a6f62223a226a6f622d31222c22737461747573223a226661696c6564222c226572726f72223a22626f6f6d227d"},
		{Record{Type: RecCancel, Job: "job-2", Status: "canceled", Error: "canceled"},
			"43000000e249a5ab7b2274223a2263616e63656c222c226a6f62223a226a6f622d32222c22737461747573223a2263616e63656c6564222c226572726f72223a2263616e63656c6564227d"},
		// Placement journal.
		{Record{Type: RecNode, Node: "n1", Addr: "http://127.0.0.1:8081"},
			"3700000072b035b97b2274223a226e6f6465222c226e6f6465223a226e31222c2261646472223a22687474703a2f2f3132372e302e302e313a38303831227d"},
		{Record{Type: RecNodeDead, Node: "n1"},
			"1d000000a3c573327b2274223a226e6f64652d64656164222c226e6f6465223a226e31227d"},
		{Record{Type: RecAdmit, Job: "fj-1", Spec: []byte(`{"design":"Rocket-2C","cycles":2000}`), Key: "abcd1234/Dedup"},
			"5d0000002df19bd47b2274223a2261646d6974222c226a6f62223a22666a2d31222c2273706563223a7b2264657369676e223a22526f636b65742d3243222c226379636c6573223a323030307d2c226b6579223a2261626364313233342f4465647570227d"},
		{Record{Type: RecPlace, Job: "fj-2", Node: "n2", Remote: "job-1", Spilled: true},
			"4600000020e521da7b2274223a22706c616365222c226a6f62223a22666a2d32222c226e6f6465223a226e32222c2272656d6f7465223a226a6f622d31222c227370696c6c6564223a747275657d"},
		{Record{Type: RecPlace, Job: "fj-1", Node: "n2", Remote: "job-2", Migrations: 2},
			"40000000ce70009e7b2274223a22706c616365222c226a6f62223a22666a2d31222c226e6f6465223a226e32222c2272656d6f7465223a226a6f622d32222c226d696773223a327d"},
		{Record{Type: RecOrphan, Job: "fj-1", Node: "n1"},
			"270000008e65f3717b2274223a226f727068616e222c226a6f62223a22666a2d31222c226e6f6465223a226e31227d"},
		{Record{Type: RecMigrate, Job: "fj-1", Node: "n2", From: "n1", Remote: "job-2", Cycle: 1024},
			"52000000f36c2d887b2274223a226d696772617465222c226a6f62223a22666a2d31222c226e6f6465223a226e32222c2272656d6f7465223a226a6f622d32222c2266726f6d223a226e31222c226379636c65223a313032347d"},
		{Record{Type: RecFinish, Job: "fj-1", Status: "done"},
			"2b000000fb3034ce7b2274223a2266696e697368222c226a6f62223a22666a2d31222c22737461747573223a22646f6e65227d"},
	} {
		buf, err := encodeRecord(g.rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf); got != g.hex {
			t.Errorf("%s record encodes to\n%s\nwant\n%s", g.rec.Type, got, g.hex)
		}
		want, _ := hex.DecodeString(g.hex)
		recs, info := DecodeRecords(want)
		if info.DroppedBytes != 0 || len(recs) != 1 || !reflect.DeepEqual(recs[0], g.rec) {
			t.Errorf("%s record decodes to %+v (%d bytes dropped), want %+v", g.rec.Type, recs, info.DroppedBytes, g.rec)
		}
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
		if err := s2.Append(Record{Type: RecCancel, Job: "job-9"}); err != nil {
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
	if err := s.Append(Record{Type: RecFinish, Job: "job-3", Status: "done"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTemp(t, Options{Dir: dir})
	defer s2.Close()
	recs, _ := replayAll(t, s2)
	if len(recs) != 2 || recs[0].Job != "job-3" || recs[1].Type != RecFinish {
		t.Fatalf("post-compact replay = %+v, want [admit job-3, finish job-3]", recs)
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
	if len(recs) != 1 || recs[0].Type != RecAdmit {
		t.Fatalf("frozen journal replayed %+v, want only the admit", recs)
	}
	if got := len(s2.LoadCheckpoint("job-1")); got != 0 {
		t.Errorf("frozen store wrote %d checkpoint files", got)
	}
	s2.Close()

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

// TestCheckpointNeverMissing: <job>.ckpt stays on disk through every
// save after the first, so a reader polling for it cannot fall into a
// rotation window.
func TestCheckpointNeverMissing(t *testing.T) {
	s := openTemp(t, Options{Fsync: FsyncAlways})
	defer s.Close()
	if err := s.SaveCheckpoint("job-1", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	path := s.ckpts.path("job-1")
	stop := make(chan struct{})
	misses := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				misses <- n
				return
			default:
			}
			if _, err := os.Stat(path); err != nil {
				n++
			}
		}
	}()
	for i := 1; i <= 200; i++ {
		if err := s.SaveCheckpoint("job-1", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if n := <-misses; n > 0 {
		t.Fatalf("%s was missing at %d polls during saves", filepath.Base(path), n)
	}
	cands := s.LoadCheckpoint("job-1")
	if len(cands) != 2 || string(cands[0]) != "v200" || string(cands[1]) != "v199" {
		t.Fatalf("candidates = %q, want [v200 v199]", cands)
	}
}

// TestPlacementRoundTrip pins the placement vocabulary through
// encode+decode.
func TestPlacementRoundTrip(t *testing.T) {
	want := samplePlacementRecords()
	recs, info := DecodeRecords(encodeBody(t, want))
	if info.DroppedBytes != 0 || !reflect.DeepEqual(recs, want) {
		t.Fatalf("decoded %+v (%d dropped), want %+v", recs, info.DroppedBytes, want)
	}
}

// TestPlacementTornTailReplay: a placement journal whose last record is
// torn mid-write replays the longest valid prefix, truncates the tail,
// and keeps appending from there — the job journal's recovery contract,
// on the router's journal.
func TestPlacementTornTailReplay(t *testing.T) {
	dir := t.TempDir()
	body := encodeBody(t, samplePlacementRecords())
	torn := append(encodeHeader(placementJournal), body[:len(body)-5]...)
	if err := os.WriteFile(filepath.Join(dir, "placements.wal"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenRouterStore(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	got, info := replayAll(t, s)
	want := samplePlacementRecords()
	if len(got) != len(want)-1 {
		t.Fatalf("torn replay decoded %d records, want %d (tail dropped)", len(got), len(want)-1)
	}
	if info.DroppedBytes == 0 {
		t.Error("torn replay reported no dropped bytes")
	}
	// Appends after the truncate extend good data: a reopen replays the
	// prefix plus the new record, cleanly.
	if err := s.Append(Record{Type: RecFinish, Job: "fj-2", Status: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenRouterStore(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	again, info2 := replayAll(t, s2)
	if info2.DroppedBytes != 0 {
		t.Errorf("reopened journal dropped %d bytes, want a clean tail", info2.DroppedBytes)
	}
	if len(again) != len(want) || again[len(again)-1].Job != "fj-2" {
		t.Errorf("reopened journal replayed %d records (last %+v), want %d ending in the fj-2 finish",
			len(again), again[len(again)-1], len(want))
	}
}

// TestPlacementVersionMismatch: a placement journal from another format
// version (or a job journal, or garbage) refuses to open — never a
// silent misread of records the build would misinterpret.
func TestPlacementVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	hdr := encodeHeader(placementJournal)
	binary.LittleEndian.PutUint32(hdr[4:8], PlacementJournalVersion+3)
	if err := os.WriteFile(filepath.Join(dir, "placements.wal"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRouterStore(Options{Dir: dir}); !errors.Is(err, ErrIncompatibleVersion) {
		t.Errorf("OpenRouterStore on future-version journal: %v, want ErrIncompatibleVersion", err)
	}

	// A job journal's magic in the placement slot is "not a journal" of
	// this kind — the router must not replay a farm's records.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "placements.wal"), encodeHeader(jobJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRouterStore(Options{Dir: dir2}); !errors.Is(err, ErrNotJournal) {
		t.Errorf("OpenRouterStore on a job journal: %v, want ErrNotJournal", err)
	}

	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, "placements.wal"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRouterStore(Options{Dir: dir3}); !errors.Is(err, ErrNotJournal) {
		t.Errorf("OpenRouterStore on garbage: %v, want ErrNotJournal", err)
	}
}
