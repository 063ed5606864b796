package farm

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
	"dedupsim/internal/dedup"
	"dedupsim/internal/harness"
)

// Compile artifacts. An artifact is one cache entry's compiled Program
// serialized for transfer: the fleet's fetch-by-hash protocol ships it
// from the node (or router) that already paid the compile to a cold peer,
// which installs it as a warm cache entry (InstallWarm) instead of
// recompiling — the compile cache's "never compile the same structure
// twice" promise extended across machines. The durable tier persists the
// same bytes so a restarted node warms from disk without recompiling.
//
// The encoding is framed like the journal and snapshots: magic, version,
// a CRC32C, the origin's compile cost as fixed-width nanoseconds, then a
// gob payload; the CRC covers the cost and the payload. The cost stays
// out of the gob body, where its encoded length would vary with its
// value, so an artifact's size depends only on the Program. A torn or
// stale artifact never installs — decode fails and the caller falls back
// to a local compile.

// ArtifactVersion is the artifact wire/disk format version. Bump it on
// any change to codegen.Program's shape (or this payload): peers and
// disk caches from other versions then fail decode and recompile locally
// instead of running a misread Program.
// Version history: 2 = superinstruction fusion + 1-bit state packing
// (Program gained fused opcodes, SlotWord/SlotBit, FusionStats);
// 3 = CSR-only fan-out (Program lost ConsumersOfSlot, ConsumersOfMem and
// PartOfActivation, which a version-2 reader would decode as empty);
// 4 = sibling-sink packing (coarser partitions, so a cached Program is
// recompiled into the faster form) and the compile cost moved from the
// gob body to the frame header; 5 = the fused compare-select opcode
// deleted (every later opcode renumbers, and gob carries raw opcode
// values); 6 = Program gained ClassRuns (a version-5 artifact would
// decode with none and silently run without the class gear); 7 =
// FusionStats.FusedByKind became a fixed-order array, so one Program
// always encodes to the same bytes.
const ArtifactVersion = 7

var artifactMagic = [4]byte{'D', 'S', 'A', 'R'}

// artifactCRC is the CRC32C table (same polynomial as the journal).
var artifactCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrArtifactCorrupt reports an artifact that failed its frame checks.
var ErrArtifactCorrupt = errors.New("farm: corrupt artifact")

// artifactPayload is the gob body: everything a peer needs to rebuild
// the harness.Compiled a job runs against. Dedup statistics are reduced
// to the class count — the only field the farm's stats path reads.
type artifactPayload struct {
	Variant    string
	Activity   bool
	HasDedup   bool
	NumClasses int
	Program    *codegen.Program
}

// artifactHeader is the frame size before the gob body: magic, version,
// CRC32C and compile nanoseconds.
const artifactHeader = 20

// EncodeArtifact serializes one compiled variant for transfer or disk.
// compileTime is the compile cost the artifact's origin paid; importers
// credit it to their warm-hit accounting.
func EncodeArtifact(cv *harness.Compiled, compileTime time.Duration) ([]byte, error) {
	p := artifactPayload{
		Variant:  string(cv.Variant),
		Activity: cv.Activity,
		Program:  cv.Program,
	}
	if cv.Dedup != nil {
		p.HasDedup = true
		p.NumClasses = cv.Dedup.NumClasses
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(p); err != nil {
		return nil, fmt.Errorf("farm: encode artifact: %w", err)
	}
	buf := make([]byte, artifactHeader+body.Len())
	copy(buf[0:4], artifactMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], ArtifactVersion)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(compileTime))
	copy(buf[artifactHeader:], body.Bytes())
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(buf[12:], artifactCRC))
	return buf, nil
}

// DecodeArtifact parses an encoded artifact back into a runnable
// harness.Compiled plus the origin's compile cost. Corruption, version
// drift, or gob mismatch all return an error — never a partial Program.
func DecodeArtifact(data []byte) (*harness.Compiled, time.Duration, error) {
	if len(data) < artifactHeader || [4]byte(data[0:4]) != artifactMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrArtifactCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ArtifactVersion {
		return nil, 0, fmt.Errorf("farm: artifact is version %d, this build reads version %d", v, ArtifactVersion)
	}
	if crc32.Checksum(data[12:], artifactCRC) != binary.LittleEndian.Uint32(data[8:12]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrArtifactCorrupt)
	}
	compileTime := time.Duration(binary.LittleEndian.Uint64(data[12:20]))
	var p artifactPayload
	if err := gob.NewDecoder(bytes.NewReader(data[artifactHeader:])).Decode(&p); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrArtifactCorrupt, err)
	}
	if p.Program == nil {
		return nil, 0, fmt.Errorf("%w: no program", ErrArtifactCorrupt)
	}
	cv := &harness.Compiled{
		Variant:  harness.Variant(p.Variant),
		Program:  p.Program,
		Activity: p.Activity,
	}
	if p.HasDedup {
		cv.Dedup = &dedup.Result{NumClasses: p.NumClasses}
	}
	return cv, compileTime, nil
}

// ArtifactKey is the fleet-wide name of one artifact: the structural
// hash and variant, rendered "hash-variant". The durable tier names its
// artifact files the same way.
func ArtifactKey(hash, variant string) string { return hash + "-" + variant }

// splitArtifactKey inverts ArtifactKey. The hash is exactly 64 hex
// chars; variants may themselves contain '-' ("Verilator-NoDedup"), so
// the split is positional, not on the first dash.
func splitArtifactKey(key string) (hash, variant string, ok bool) {
	if len(key) < 66 || key[64] != '-' {
		return "", "", false
	}
	return key[:64], key[65:], true
}

// ExportArtifact encodes the completed cache entry for the given
// structural hash and variant, or reports false when this node has no
// finished compile for it (in-flight and failed entries are not
// exportable).
func (f *Farm) ExportArtifact(hash, variant string) ([]byte, bool) {
	h, err := circuit.ParseHash(hash)
	if err != nil {
		return nil, false
	}
	cv, compileTime, ok := f.cache.Lookup(CacheKey{Hash: h, Variant: harness.Variant(variant)})
	if !ok {
		return nil, false
	}
	data, err := EncodeArtifact(cv, compileTime)
	if err != nil {
		return nil, false
	}
	return data, true
}

// fetchArtifactWarm consults the Config.FetchArtifact hook on a cold key:
// a successfully fetched and decoded artifact installs as a warm cache
// entry so the Get that follows hits instead of compiling. Every failure
// (no hook, fetch error, corrupt bytes, variant mismatch, racing local
// compile) silently falls through to the normal compile path.
func (f *Farm) fetchArtifactWarm(ctx context.Context, key CacheKey) {
	if f.cfg.FetchArtifact == nil || f.cache.Has(key) {
		return
	}
	data, err := f.cfg.FetchArtifact(ctx, key.Hash.String(), string(key.Variant))
	if err != nil || len(data) == 0 {
		return
	}
	cv, compileTime, err := DecodeArtifact(data)
	if err != nil || cv.Variant != key.Variant {
		return
	}
	if !f.cache.InstallWarm(key, cv, compileTime) {
		return // raced a local compile; its entry wins
	}
	f.mu.Lock()
	f.artifactsFetched++
	f.mu.Unlock()
	// Persist fetched warmth like a local compile.
	f.persistArtifact(key, data)
}
