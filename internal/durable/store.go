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
//	<dir>/journal.wal        write-ahead job journal (placements.wal for a router)
//	<dir>/checkpoints/       <job>.ckpt (+ <job>.ckpt.prev), atomic renames
//	<dir>/artifacts/         <key>.bin encoded compile artifacts (fetch-by-hash)
//
// All methods are safe for concurrent use. After Freeze or Abandon every
// mutating method writes nothing (Append returns ErrFrozen, the rest are
// silent no-ops), which is how the farm makes a graceful shutdown (or a
// simulated crash) stop touching disk without coordinating every
// in-flight worker.
type Store struct {
	dir  string
	opts Options
	kind journalKind

	ckpts, artifacts blobTier

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

// OpenStore opens (creating as needed) the data directory and its job
// journal. It fails fast — rather than surfacing errors later, mid-run —
// when the directory is unwritable or the journal belongs to an
// incompatible format version (ErrIncompatibleVersion) or is not a
// journal at all (ErrNotJournal). It does not replay; call Replay next.
func OpenStore(opts Options) (*Store, error) {
	return openStore(opts, jobJournal)
}

// OpenRouterStore is OpenStore for the router tier: its journal holds
// placement records under its own file name and magic, so a farm's data
// directory can never be misread as a router's or vice versa.
func OpenRouterStore(opts Options) (*Store, error) {
	return openStore(opts, placementJournal)
}

func openStore(opts Options, kind journalKind) (*Store, error) {
	opts = opts.withDefaults()
	if _, err := ParsePolicy(string(opts.Fsync)); err != nil {
		return nil, err
	}
	s := &Store{
		dir: opts.Dir, opts: opts, kind: kind,
		ckpts:     blobTier{filepath.Join(opts.Dir, "checkpoints"), ".ckpt"},
		artifacts: blobTier{filepath.Join(opts.Dir, "artifacts"), ".bin"},
	}
	for _, d := range []string{opts.Dir, s.ckpts.dir, s.artifacts.dir} {
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
	s.f, s.w = f, bufio.NewWriter(f)
	if opts.Fsync == FsyncInterval {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flusher()
	}
	return s, nil
}

// Replay scans the journal, invoking fn for each valid record in order.
// A torn or corrupt tail is dropped — the file is truncated back to the
// valid prefix so subsequent appends extend good data, and the dropped
// byte count is reported. The write position is left at the end of the
// valid prefix; Append continues from there.
func (s *Store) Replay(fn func(Record)) (ReplayInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.f.Stat()
	if err != nil {
		return ReplayInfo{}, fmt.Errorf("durable: replay: %w", err)
	}
	body := make([]byte, st.Size()-headerSize)
	if _, err := s.f.ReadAt(body, headerSize); err != nil && len(body) > 0 {
		return ReplayInfo{}, fmt.Errorf("durable: replay: %w", err)
	}
	recs, info := DecodeRecords(body)
	if info.DroppedBytes > 0 {
		if err := s.f.Truncate(headerSize + info.ValidBytes); err != nil {
			return info, fmt.Errorf("durable: truncate torn tail: %w", err)
		}
	}
	if _, err := s.f.Seek(headerSize+info.ValidBytes, 0); err != nil {
		return info, fmt.Errorf("durable: replay: %w", err)
	}
	s.w.Reset(s.f)
	for _, r := range recs {
		fn(r)
	}
	return info, nil
}

// ErrFrozen is returned by Append once the store is frozen: the record
// was not written and never will be.
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
// farm and the router call this at recovery (and the router at Close) so
// the journal holds only live state instead of the full history of every
// job that ever ran.
func (s *Store) Compact(live []Record) error {
	buf := encodeHeader(s.kind)
	for _, r := range live {
		rec, err := encodeRecord(r)
		if err != nil {
			return err
		}
		buf = append(buf, rec...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return nil
	}
	path := filepath.Join(s.dir, s.kind.file)
	if err := writeFileAtomic(path+".tmp", path, buf, true); err != nil {
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

// Freeze stops all future writes (journal, checkpoints, artifacts) without
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

// isFrozen reports whether Freeze, Abandon or Close has run; the file
// tiers check it before every write.
func (s *Store) isFrozen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frozen
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

// blobTier is one directory of name→bytes files, <dir>/<name><ext>,
// each written to <name><ext>.tmp and atomically renamed into place.
// The checkpoint and artifact tiers are two of them.
type blobTier struct{ dir, ext string }

func (t blobTier) path(name string) string { return filepath.Join(t.dir, name+t.ext) }

func (t blobTier) save(name string, data []byte, sync bool) error {
	p := t.path(name)
	return writeFileAtomic(p+".tmp", p, data, sync)
}

func (t blobTier) load(name string) ([]byte, bool) {
	data, err := os.ReadFile(t.path(name))
	return data, err == nil
}

// names lists the tier's entries (temp and rotated files excluded).
func (t blobTier) names() []string {
	ents, _ := os.ReadDir(t.dir)
	var names []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), t.ext); ok {
			names = append(names, name)
		}
	}
	return names
}

func (t blobTier) remove(name string) {
	p := t.path(name)
	os.Remove(p)
	os.Remove(p + ".tmp")
}

// --- checkpoints ---

// SaveCheckpoint persists a job's encoded snapshot. The new checkpoint
// is written (and synced, per the fsync policy) to <job>.ckpt.tmp first;
// then the current <job>.ckpt is hard-linked to <job>.ckpt.prev and the
// temp file renamed over it. So a load always has an older fallback, a
// torn write can never shadow a good checkpoint, and <job>.ckpt never
// goes missing while a save runs. No-op once frozen.
func (s *Store) SaveCheckpoint(job string, data []byte) error {
	if s.isFrozen() {
		return nil
	}
	// Write even if a Freeze lands during the save: a stopping farm
	// waits for this save to finish.
	path := s.ckpts.path(job)
	if err := writeFileSynced(path+".tmp", data, s.opts.Fsync != FsyncNone); err != nil {
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	if err := linkPrev(path, path+".prev"); err != nil {
		os.Remove(path + ".tmp")
		return fmt.Errorf("durable: checkpoint rotate: %w", err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		os.Remove(path + ".tmp")
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	return nil
}

// linkPrev makes prev a second name of path's current file, replacing
// any older prev; an absent path is no error. Where the file system has
// no hard links it falls back to a rename, which leaves path missing
// until the caller renames the new file into place.
func linkPrev(path, prev string) error {
	if err := os.Remove(prev); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	err := os.Link(path, prev)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		err = os.Rename(path, prev)
	}
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// LoadCheckpoint returns a job's persisted checkpoint candidates,
// newest first (current, then the rotated previous). Validation is the
// caller's job — the bytes carry their own checksum.
func (s *Store) LoadCheckpoint(job string) [][]byte {
	var out [][]byte
	for _, p := range []string{s.ckpts.path(job), s.ckpts.path(job) + ".prev"} {
		if data, err := os.ReadFile(p); err == nil {
			out = append(out, data)
		}
	}
	return out
}

// Checkpoints lists the job IDs with persisted checkpoints.
func (s *Store) Checkpoints() []string { return s.ckpts.names() }

// RemoveCheckpoint deletes a job's checkpoint files (terminal jobs and
// recovery GC of orphans). No-op once frozen.
func (s *Store) RemoveCheckpoint(job string) {
	if s.isFrozen() {
		return
	}
	s.ckpts.remove(job)
	os.Remove(s.ckpts.path(job) + ".prev")
}

// --- compile-artifact tier ---
//
// Keyed by hash-variant names (farm.ArtifactKey). Each file is one
// serialized compiled Program: the only persisted form of a compile. A
// restarted farm decodes it instead of recompiling, and the fleet ships
// the same bytes between nodes. The bytes are opaque here — artifacts
// carry their own framing and checksum (farm.EncodeArtifact).

// SaveArtifact persists one encoded compile artifact atomically. No-op
// once frozen.
func (s *Store) SaveArtifact(name string, data []byte) error {
	return s.saveBlob(s.artifacts, name, data)
}

// LoadArtifact returns one artifact's bytes, or false when absent.
func (s *Store) LoadArtifact(name string) ([]byte, bool) { return s.artifacts.load(name) }

// Artifacts lists the persisted artifact names.
func (s *Store) Artifacts() []string { return s.artifacts.names() }

// RemoveArtifact deletes one artifact (recovery GC of artifacts that no
// longer decode). No-op once frozen.
func (s *Store) RemoveArtifact(name string) { s.removeBlob(s.artifacts, name) }

func (s *Store) saveBlob(t blobTier, name string, data []byte) error {
	if s.isFrozen() {
		return nil
	}
	if err := t.save(name, data, s.opts.Fsync != FsyncNone); err != nil {
		return fmt.Errorf("durable: %s: %w", filepath.Base(t.dir), err)
	}
	return nil
}

func (s *Store) removeBlob(t blobTier, name string) {
	if !s.isFrozen() {
		t.remove(name)
	}
}

// writeFileAtomic writes data to tmp, optionally fsyncs, and renames it
// over path — a reader never observes a partial file.
func writeFileAtomic(tmp, path string, data []byte, sync bool) error {
	if err := writeFileSynced(tmp, data, sync); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// writeFileSynced writes data to path, fsyncing it when sync is set; on
// failure it removes the partial file.
func writeFileSynced(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}
