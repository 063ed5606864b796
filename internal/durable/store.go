package durable

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// FsyncPolicy selects how eagerly the journal reaches stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append: nothing acknowledged is ever
	// lost, at one fsync per record.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval group-commits: appends buffer in process and a
	// background flusher syncs every Options.FsyncInterval. A crash loses
	// at most one interval of records (they replay as if never written).
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNone writes through to the OS on every append but never
	// fsyncs: a process crash loses nothing, only an OS crash or power
	// failure can.
	FsyncNone FsyncPolicy = "none"
)

// Options configures a Store.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Fsync is the journal sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the group-commit period for FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	return o
}

// ParsePolicy validates an fsync policy string ("" means the default).
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "", FsyncInterval:
		return FsyncInterval, nil
	case FsyncAlways:
		return FsyncAlways, nil
	case FsyncNone:
		return FsyncNone, nil
	}
	return "", fmt.Errorf("durable: unknown fsync policy %q (have %s, %s, %s)",
		s, FsyncAlways, FsyncInterval, FsyncNone)
}

// Store owns one data directory:
//
//	<dir>/journal.wal        write-ahead job journal
//	<dir>/checkpoints/       <job>.ckpt (+ <job>.ckpt.prev), atomic renames
//	<dir>/cache/             <key>.json compiled-design metadata
//	<dir>/artifacts/         <key>.bin encoded compile artifacts (fetch-by-hash)
//
// All methods are safe for concurrent use. After Freeze or Abandon every
// mutating method is a silent no-op, which is how the farm makes a
// graceful shutdown (or a simulated crash) stop touching disk without
// coordinating every in-flight worker.
type Store struct {
	dir  string
	opts Options
	kind journalKind

	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	frozen bool
	// abandoned additionally skips the final flush on Close, dropping
	// buffered-but-unsynced records exactly as a SIGKILL would.
	abandoned bool
	flushStop chan struct{}
	flushDone chan struct{}
}

// OpenStore opens (creating as needed) the data directory and its
// journal. It fails fast — rather than surfacing errors later, mid-run —
// when the directory is unwritable or the journal belongs to an
// incompatible format version (ErrIncompatibleVersion) or is not a
// journal at all (ErrNotJournal). It does not replay; call Replay next.
func OpenStore(opts Options) (*Store, error) {
	return openStore(opts, jobJournal)
}

// OpenRouterStore opens a data directory whose journal holds fleet
// placement records (PlacementRecord) instead of job records — the
// router tier's store. Checkpoint, cache, and artifact tiers are
// identical to OpenStore's; only the journal vocabulary (and its file
// name and magic, so the two can never be misread) differs. Use
// ReplayPlacements/AppendPlacement/CompactPlacements with it.
func OpenRouterStore(opts Options) (*Store, error) {
	return openStore(opts, placementJournal)
}

func openStore(opts Options, kind journalKind) (*Store, error) {
	opts = opts.withDefaults()
	if _, err := ParsePolicy(string(opts.Fsync)); err != nil {
		return nil, err
	}
	for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, "checkpoints"), filepath.Join(opts.Dir, "cache"), filepath.Join(opts.Dir, "artifacts")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("durable: data dir: %w", err)
		}
	}
	path := filepath.Join(opts.Dir, kind.file)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: journal: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.Write(encodeHeader(kind)); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: journal: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: journal: %w", err)
		}
	} else {
		hdr := make([]byte, headerSize)
		n, _ := f.ReadAt(hdr, 0)
		if err := checkHeader(kind, hdr[:n]); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: %s: %w", path, err)
		}
	}
	s := &Store{dir: opts.Dir, opts: opts, kind: kind, f: f, w: bufio.NewWriter(f)}
	if opts.Fsync == FsyncInterval {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flusher()
	}
	return s, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Replay scans the journal, invoking fn for each valid record in order.
// A torn or corrupt tail is dropped — the file is truncated back to the
// valid prefix so subsequent appends extend good data, and the dropped
// byte count is reported. The write position is left at the end of the
// valid prefix; Append continues from there.
func (s *Store) Replay(fn func(Record)) (ReplayInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	body, err := s.readBodyLocked()
	if err != nil {
		return ReplayInfo{}, err
	}
	recs, info := DecodeRecords(body)
	if err := s.rewindLocked(info); err != nil {
		return info, err
	}
	for _, r := range recs {
		fn(r)
	}
	return info, nil
}

// ReplayPlacements is Replay for a placement journal (OpenRouterStore).
func (s *Store) ReplayPlacements(fn func(PlacementRecord)) (ReplayInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	body, err := s.readBodyLocked()
	if err != nil {
		return ReplayInfo{}, err
	}
	recs, info := DecodePlacementRecords(body)
	if err := s.rewindLocked(info); err != nil {
		return info, err
	}
	for _, r := range recs {
		fn(r)
	}
	return info, nil
}

// readBodyLocked returns the journal body after the file header.
func (s *Store) readBodyLocked() ([]byte, error) {
	st, err := s.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("durable: replay: %w", err)
	}
	body := make([]byte, st.Size()-headerSize)
	if _, err := s.f.ReadAt(body, headerSize); err != nil && len(body) > 0 {
		return nil, fmt.Errorf("durable: replay: %w", err)
	}
	return body, nil
}

// rewindLocked truncates a torn tail and positions appends at the end of
// the valid prefix.
func (s *Store) rewindLocked(info ReplayInfo) error {
	if info.DroppedBytes > 0 {
		if err := s.f.Truncate(headerSize + info.ValidBytes); err != nil {
			return fmt.Errorf("durable: truncate torn tail: %w", err)
		}
	}
	if _, err := s.f.Seek(headerSize+info.ValidBytes, 0); err != nil {
		return fmt.Errorf("durable: replay: %w", err)
	}
	s.w.Reset(s.f)
	return nil
}

// ErrFrozen is returned by Append and AppendPlacement once the store is
// frozen: the record was not written and never will be.
var ErrFrozen = errors.New("durable: store frozen")

// Append journals one record under the configured fsync policy. Errors
// are returned for accounting but the store stays usable — durability
// degrades to best-effort if the disk misbehaves. Once frozen it writes
// nothing and returns ErrFrozen.
func (s *Store) Append(r Record) error {
	buf, err := encodeRecord(r)
	if err != nil {
		return err
	}
	return s.appendBuf(buf)
}

// AppendPlacement is Append for a placement journal (OpenRouterStore).
func (s *Store) AppendPlacement(r PlacementRecord) error {
	buf, err := encodePlacementRecord(r)
	if err != nil {
		return err
	}
	return s.appendBuf(buf)
}

func (s *Store) appendBuf(buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return ErrFrozen
	}
	if _, err := s.w.Write(buf); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	switch s.opts.Fsync {
	case FsyncAlways:
		if err := s.w.Flush(); err != nil {
			return fmt.Errorf("durable: append: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("durable: append: %w", err)
		}
	case FsyncNone:
		if err := s.w.Flush(); err != nil {
			return fmt.Errorf("durable: append: %w", err)
		}
	}
	return nil
}

// Compact atomically rewrites the journal to hold exactly live (plus the
// header), via temp file + rename, and resumes appending after it. The
// farm calls this at recovery so the journal holds one admit (and
// checkpoint) record per live job instead of the full history of every
// job that ever ran.
func (s *Store) Compact(live []Record) error {
	encoded := make([][]byte, 0, len(live))
	for _, r := range live {
		rec, err := encodeRecord(r)
		if err != nil {
			return err
		}
		encoded = append(encoded, rec)
	}
	return s.compactEncoded(encoded)
}

// CompactPlacements is Compact for a placement journal (OpenRouterStore).
func (s *Store) CompactPlacements(live []PlacementRecord) error {
	encoded := make([][]byte, 0, len(live))
	for _, r := range live {
		rec, err := encodePlacementRecord(r)
		if err != nil {
			return err
		}
		encoded = append(encoded, rec)
	}
	return s.compactEncoded(encoded)
}

func (s *Store) compactEncoded(encoded [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return nil
	}
	path := filepath.Join(s.dir, s.kind.file)
	tmp := path + ".tmp"
	buf := encodeHeader(s.kind)
	for _, rec := range encoded {
		buf = append(buf, rec...)
	}
	if err := writeFileAtomic(tmp, path, buf, true); err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	// Swap the handle to the new file.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return fmt.Errorf("durable: compact: %w", err)
	}
	s.f.Close()
	s.f = f
	s.w.Reset(f)
	return nil
}

// flusher is the FsyncInterval group-commit loop.
func (s *Store) flusher() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.frozen {
				s.w.Flush()
				s.f.Sync()
			}
			s.mu.Unlock()
		}
	}
}

// Freeze stops all future writes (journal, checkpoints, cache) without
// dropping what was already appended; Close will still flush buffered
// records. The farm freezes at shutdown so cancellations caused by the
// shutdown itself are not journaled — those jobs re-admit on restart.
func (s *Store) Freeze() {
	s.mu.Lock()
	s.frozen = true
	s.mu.Unlock()
}

// Abandon is Freeze plus dropping any buffered-but-unsynced records on
// Close — the closest an in-process store can get to a SIGKILL. The
// kill-restart chaos harness and bench's farm.recovery_ms probe use it.
func (s *Store) Abandon() {
	s.mu.Lock()
	s.frozen = true
	s.abandoned = true
	s.mu.Unlock()
}

// Close flushes (unless abandoned) and closes the journal.
func (s *Store) Close() error {
	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if !s.abandoned {
		if ferr := s.w.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if serr := s.f.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	s.frozen = true
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// --- checkpoints ---

func (s *Store) ckptPath(job string) string {
	return filepath.Join(s.dir, "checkpoints", job+".ckpt")
}

// SaveCheckpoint persists a job's encoded snapshot. The previous
// checkpoint (if any) is rotated to <job>.ckpt.prev before the new one is
// renamed into place, so a load always has an older fallback and a torn
// write can never shadow a good checkpoint. No-op once frozen.
func (s *Store) SaveCheckpoint(job string, data []byte) error {
	s.mu.Lock()
	frozen := s.frozen
	s.mu.Unlock()
	if frozen {
		return nil
	}
	path := s.ckptPath(job)
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+".prev"); err != nil {
			return fmt.Errorf("durable: checkpoint rotate: %w", err)
		}
	}
	if err := writeFileAtomic(path+".tmp", path, data, s.opts.Fsync != FsyncNone); err != nil {
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint returns a job's persisted checkpoint candidates,
// newest first (current, then the rotated previous). Validation is the
// caller's job — the bytes carry their own checksum.
func (s *Store) LoadCheckpoint(job string) [][]byte {
	var out [][]byte
	for _, p := range []string{s.ckptPath(job), s.ckptPath(job) + ".prev"} {
		if data, err := os.ReadFile(p); err == nil {
			out = append(out, data)
		}
	}
	return out
}

// Checkpoints lists the job IDs with persisted checkpoints.
func (s *Store) Checkpoints() []string {
	ents, err := os.ReadDir(filepath.Join(s.dir, "checkpoints"))
	if err != nil {
		return nil
	}
	var jobs []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".ckpt"); ok {
			jobs = append(jobs, name)
		}
	}
	return jobs
}

// RemoveCheckpoint deletes a job's checkpoint files (terminal jobs and
// recovery GC of orphans). No-op once frozen.
func (s *Store) RemoveCheckpoint(job string) {
	s.mu.Lock()
	frozen := s.frozen
	s.mu.Unlock()
	if frozen {
		return
	}
	base := s.ckptPath(job)
	for _, p := range []string{base, base + ".prev", base + ".tmp"} {
		os.Remove(p)
	}
}

// --- compile-cache tier ---

func (s *Store) cachePath(name string) string {
	return filepath.Join(s.dir, "cache", name+".json")
}

// SaveCacheEntry persists one compile-cache entry's metadata (design
// source + identity) atomically. No-op once frozen.
func (s *Store) SaveCacheEntry(name string, data []byte) error {
	s.mu.Lock()
	frozen := s.frozen
	s.mu.Unlock()
	if frozen {
		return nil
	}
	path := s.cachePath(name)
	if err := writeFileAtomic(path+".tmp", path, data, s.opts.Fsync != FsyncNone); err != nil {
		return fmt.Errorf("durable: cache entry: %w", err)
	}
	return nil
}

// CacheEntries loads every persisted cache entry, keyed by name.
func (s *Store) CacheEntries() map[string][]byte {
	ents, err := os.ReadDir(filepath.Join(s.dir, "cache"))
	if err != nil {
		return nil
	}
	out := map[string][]byte{}
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		if data, err := os.ReadFile(s.cachePath(name)); err == nil {
			out[name] = data
		}
	}
	return out
}

// RemoveCacheEntry deletes one cache entry (recovery GC of entries that
// no longer decode or compile). No-op once frozen.
func (s *Store) RemoveCacheEntry(name string) {
	s.mu.Lock()
	frozen := s.frozen
	s.mu.Unlock()
	if frozen {
		return
	}
	os.Remove(s.cachePath(name))
	os.Remove(s.cachePath(name) + ".tmp")
}

// --- compile-artifact tier (fetch-by-hash) ---
//
// Artifacts are the serialized compiled Programs themselves, keyed by the
// same hash-variant names as the cache tier. The cache tier's metadata is
// the self-healing fallback (recompile from source, verify the hash); an
// artifact is the fast path (decode, skip the compile) and the unit the
// fleet ships between nodes. The bytes are opaque here — they carry their
// own framing and checksum (farm.EncodeArtifact).

func (s *Store) artifactPath(name string) string {
	return filepath.Join(s.dir, "artifacts", name+".bin")
}

// SaveArtifact persists one encoded compile artifact atomically. No-op
// once frozen.
func (s *Store) SaveArtifact(name string, data []byte) error {
	s.mu.Lock()
	frozen := s.frozen
	s.mu.Unlock()
	if frozen {
		return nil
	}
	path := s.artifactPath(name)
	if err := writeFileAtomic(path+".tmp", path, data, s.opts.Fsync != FsyncNone); err != nil {
		return fmt.Errorf("durable: artifact: %w", err)
	}
	return nil
}

// LoadArtifact returns one artifact's bytes, or false when absent.
func (s *Store) LoadArtifact(name string) ([]byte, bool) {
	data, err := os.ReadFile(s.artifactPath(name))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Artifacts lists the persisted artifact names.
func (s *Store) Artifacts() []string {
	ents, err := os.ReadDir(filepath.Join(s.dir, "artifacts"))
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".bin"); ok {
			names = append(names, name)
		}
	}
	return names
}

// RemoveArtifact deletes one artifact (recovery GC of artifacts that no
// longer decode or whose cache metadata is gone). No-op once frozen.
func (s *Store) RemoveArtifact(name string) {
	s.mu.Lock()
	frozen := s.frozen
	s.mu.Unlock()
	if frozen {
		return
	}
	os.Remove(s.artifactPath(name))
	os.Remove(s.artifactPath(name) + ".tmp")
}

// writeFileAtomic writes data to tmp, optionally fsyncs, and renames it
// over path — a reader never observes a partial file.
func writeFileAtomic(tmp, path string, data []byte, sync bool) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
