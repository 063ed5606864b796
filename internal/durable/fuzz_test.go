package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalDecode feeds arbitrary bytes to the journal record scanner.
// The contract under corruption of any shape: never panic, never loop,
// never return a record whose frame did not check out ("phantom"
// records), and always account every input byte as either valid prefix
// or dropped tail.
func FuzzJournalDecode(f *testing.F) {
	addDecodeSeeds(f, encodeBody(f, sampleRecords()))
	f.Fuzz(checkDecode)
}

// FuzzPlacementDecode holds the router's placement vocabulary to the same
// contract. Both journals share one decoder; the seeds differ.
func FuzzPlacementDecode(f *testing.F) {
	addDecodeSeeds(f, encodeBody(f, samplePlacementRecords()))
	f.Fuzz(checkDecode)
}

// addDecodeSeeds seeds a decode fuzzer with a well-formed body, its torn
// tail, and junk.
func addDecodeSeeds(f *testing.F, body []byte) {
	f.Add(body)
	f.Add(body[:len(body)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0}, 64))
}

func checkDecode(t *testing.T, data []byte) {
	recs, info := DecodeRecords(data)
	if int64(len(recs)) != info.Records {
		t.Fatalf("returned %d records but Records = %d", len(recs), info.Records)
	}
	if info.ValidBytes+info.DroppedBytes != int64(len(data)) {
		t.Fatalf("ValidBytes %d + DroppedBytes %d != input %d",
			info.ValidBytes, info.DroppedBytes, len(data))
	}
	// The valid prefix must re-decode to the same records: no phantom
	// records outside what the framing vouches for.
	again, info2 := DecodeRecords(data[:info.ValidBytes])
	if len(again) != len(recs) || info2.DroppedBytes != 0 {
		t.Fatalf("valid prefix re-decode: %d records (%d dropped), want %d (0)",
			len(again), info2.DroppedBytes, len(recs))
	}
	for _, r := range recs {
		if r.Type == "" {
			t.Fatal("decoded record with empty type")
		}
	}
}

// TestStoreOpensOnFuzzedBodies drives the full on-disk open+replay path
// over representative corrupted bodies (the fuzz target stays in-memory
// so it runs at full speed; this covers the file-backed half once).
func TestStoreOpensOnFuzzedBodies(t *testing.T) {
	body := encodeBody(t, sampleRecords())
	cases := [][]byte{
		body,
		body[:len(body)-3],
		{},
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		bytes.Repeat([]byte{0xa5}, 333),
	}
	for i, data := range cases {
		want, _ := DecodeRecords(data)
		dir := t.TempDir()
		file := append(encodeHeader(jobJournal), data...)
		if err := os.WriteFile(filepath.Join(dir, "journal.wal"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(Options{Dir: dir})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		n := 0
		if _, err := s.Replay(func(Record) { n++ }); err != nil {
			t.Fatalf("case %d: replay: %v", i, err)
		}
		if n != len(want) {
			t.Errorf("case %d: store replayed %d records, scanner decoded %d", i, n, len(want))
		}
		s.Close()
	}
}
