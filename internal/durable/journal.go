// Package durable is the crash-safety layer of the farm and the fleet
// router: a write-ahead journal (jobs for a farm, placements for a
// router), a persistent checkpoint store, and a disk tier of compile
// artifacts, all under one data directory. The paper's headline win
// is batch throughput over long campaigns (Section 6.6 runs for days);
// a campaign that outlives any single process needs its admitted jobs,
// checkpoints, and compiled-design knowledge to survive a restart.
//
// Design rules, in order:
//
//  1. Never load torn or corrupt data. Every journal record is framed
//     with a length and a CRC32C; checkpoint and artifact files are
//     written to a temp file and atomically renamed, and both carry
//     their own checksum (sim.Snapshot's and farm.EncodeArtifact's
//     encodings).
//  2. Degrade, don't die. A truncated or corrupt journal tail is dropped
//     (the valid prefix replays); a corrupt checkpoint falls back to an
//     older one or to cycle 0; a corrupt artifact is deleted and its
//     design compiles again on first use.
//  3. Fail fast only on structural problems an operator must fix: an
//     unwritable data directory or a journal from an incompatible format
//     version.
package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
)

// Journal format versions. Bump on any incompatible layout change;
// OpenStore and OpenRouterStore refuse journals from other versions
// (ErrIncompatibleVersion) so an operator never silently replays records
// it would misread.
const (
	JournalVersion          = 1
	PlacementJournalVersion = 1
)

// journalKind names one of the two journals sharing this package's
// framing: the farm's job journal ("DSJL": DedupSim JournaL) and the
// router's placement journal ("DSPL": DedupSim PLacements). Distinct
// magics and file names mean a data directory can never be opened as the
// wrong tier and misread.
type journalKind struct {
	file    string
	magic   [4]byte
	version uint32
}

var (
	jobJournal       = journalKind{file: "journal.wal", magic: [4]byte{'D', 'S', 'J', 'L'}, version: JournalVersion}
	placementJournal = journalKind{file: "placements.wal", magic: [4]byte{'D', 'S', 'P', 'L'}, version: PlacementJournalVersion}
)

// headerSize is the journal file header: 4-byte magic + uint32 version.
const headerSize = 8

// frameSize is the per-record frame: uint32 payload length + uint32
// CRC32C of the payload.
const frameSize = 8

// MaxRecordLen bounds one record's payload. Anything larger is treated
// as corruption — a flipped bit in a length field must not make replay
// attempt a multi-gigabyte allocation.
const MaxRecordLen = 16 << 20

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64; the same checksum filesystems and gRPC use for framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors an operator must act on (everything else degrades gracefully).
var (
	// ErrNotJournal reports a journal file that does not start with the
	// expected journal magic — the data directory holds something else.
	ErrNotJournal = errors.New("not a dedupsim journal")
	// ErrIncompatibleVersion reports a journal written by an incompatible
	// format version of this package.
	ErrIncompatibleVersion = errors.New("incompatible journal format version")
)

// RecType labels a journal record.
type RecType string

// The job journal's vocabulary (OpenStore) mirrors a job's lifecycle: a
// job whose admit has no later finish or cancel is unfinished and is
// re-admitted on recovery.
const (
	RecAdmit  RecType = "admit"  // job accepted: Spec carries the JobSpec JSON (router: plus its routing Key)
	RecFinish RecType = "finish" // terminal: done or failed (Status, Error)
	RecCancel RecType = "cancel" // terminal: canceled
	// RecCheckpoint names a checkpoint at Cycle. Recovery finds a
	// checkpoint on disk by job ID, so replay skips this record, as it
	// skips the "start" records older journals hold; bench's append
	// probe writes it as a fixed-size record.
	RecCheckpoint RecType = "ckpt"
)

// The placement journal's vocabulary (OpenRouterStore) adds node
// membership and a fleet job's placement lifecycle to RecAdmit and
// RecFinish. A job whose newest records leave it non-terminal is
// re-tracked on recovery; a job placed on a node that died while the
// router was down is orphaned and re-migrated.
const (
	RecNode     RecType = "node"      // a node registered (Node, Addr)
	RecNodeDead RecType = "node-dead" // a node died (Node); its unfinished jobs orphan
	RecPlace    RecType = "place"     // Job landed on Node as Remote (Spilled: off its key's primary)
	RecOrphan   RecType = "orphan"    // Job's owner Node died before the job finished
	RecMigrate  RecType = "migrate"   // Job moved From a dead node to Node as Remote, resuming at Cycle
)

// Record is one entry of either journal. The payload is JSON
// (self-describing and forward-compatible: unknown fields are ignored on
// replay) inside a binary length+CRC frame (torn tails and bit flips are
// detected without trusting the payload). Every field is omitempty and
// the field order is fixed, so a record encodes to the same bytes
// whichever vocabulary it belongs to.
type Record struct {
	Type RecType `json:"t"`
	Job  string  `json:"job,omitempty"`
	// Spec is the admitted JobSpec (RecAdmit), kept as raw JSON so this
	// package does not depend on the farm's types.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Key is the job's placement routing key (router RecAdmit).
	Key string `json:"key,omitempty"`
	// Node is the registrant (RecNode, RecNodeDead), the placement target
	// (RecPlace, RecMigrate), or the dead owner (RecOrphan).
	Node string `json:"node,omitempty"`
	// Addr is the node's base URL (RecNode).
	Addr string `json:"addr,omitempty"`
	// Remote is the job's ID on its owner node (RecPlace, RecMigrate).
	Remote string `json:"remote,omitempty"`
	// From is the previous owner (RecMigrate).
	From string `json:"from,omitempty"`
	// Cycle is the checkpoint cycle a migration resumed from (RecMigrate).
	Cycle int64 `json:"cycle,omitempty"`
	// Migrations carries a job's re-placement count through compaction,
	// which folds its RecMigrate history into one RecPlace.
	Migrations int `json:"migs,omitempty"`
	// Status and Error describe the terminal state (RecFinish, RecCancel).
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Spilled marks a placement off the key's primary ring owner
	// (RecPlace).
	Spilled bool `json:"spilled,omitempty"`
}

// ReplayInfo summarizes one journal scan.
type ReplayInfo struct {
	// Records is how many valid records were decoded.
	Records int64
	// ValidBytes is the length of the valid record prefix (excluding the
	// file header); appends resume there after a truncate.
	ValidBytes int64
	// DroppedBytes counts trailing bytes discarded as a torn write or
	// corruption; 0 means the journal was clean.
	DroppedBytes int64
}

// encodeRecord frames one record: uint32 payload length, uint32 CRC32C
// of the payload, then the JSON payload.
func encodeRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("durable: encode record: %w", err)
	}
	if len(payload) > MaxRecordLen {
		return nil, fmt.Errorf("durable: record payload %d bytes exceeds max %d", len(payload), MaxRecordLen)
	}
	buf := make([]byte, frameSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameSize:], payload)
	return buf, nil
}

// DecodeRecords scans framed records from data (the journal body, after
// the file header). It decodes the longest valid prefix and stops at the
// first frame that is truncated (a torn tail) or fails its CRC or JSON
// decode (corruption); everything after that point is reported in
// DroppedBytes, never returned as phantom records, and never panics
// regardless of input.
func DecodeRecords(data []byte) ([]Record, ReplayInfo) {
	var recs []Record
	off := 0
	for {
		rest := data[off:]
		if len(rest) < frameSize {
			break // clean end or torn frame header
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > MaxRecordLen || len(rest) < frameSize+int(n) {
			break // corrupt length field or torn payload
		}
		payload := rest[frameSize : frameSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			break // bit flip
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil || r.Type == "" {
			break // CRC-valid but not a record we understand
		}
		recs = append(recs, r)
		off += frameSize + int(n)
	}
	return recs, ReplayInfo{Records: int64(len(recs)), ValidBytes: int64(off), DroppedBytes: int64(len(data) - off)}
}

// encodeHeader renders a journal file header for the given kind.
func encodeHeader(k journalKind) []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:4], k.magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], k.version)
	return buf
}

// checkHeader validates a journal file header against the given kind.
func checkHeader(k journalKind, buf []byte) error {
	if len(buf) < headerSize {
		// A header torn mid-write: the journal never held a record, so
		// treating it as empty (rewritten by the caller) would also be
		// sound, but a short header more often means the file is not ours.
		return fmt.Errorf("%w: %d-byte header", ErrNotJournal, len(buf))
	}
	if [4]byte(buf[0:4]) != k.magic {
		return fmt.Errorf("%w: bad magic %q", ErrNotJournal, buf[0:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != k.version {
		return fmt.Errorf("%w: journal is version %d, this build reads version %d",
			ErrIncompatibleVersion, v, k.version)
	}
	return nil
}
