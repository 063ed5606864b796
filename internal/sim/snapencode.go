package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Snapshot wire format, for the farm's persistent checkpoint store. The
// layout is versioned and self-checking so a checkpoint written by a
// crashed process is either loaded exactly as saved or rejected — never
// half-trusted:
//
//	"DSNP" magic (4 bytes)
//	u32 version (currently 2)
//	u64 Cycles, ActsExecuted, ActsSkipped, DynInstrs
//	u32 len(State); len(State) x u64
//	u32 len(Mems);  per memory: u32 depth, depth x u64
//	u32 len(Dirty); len(Dirty) x u8 (0/1; length 0 = no Dirty recorded)
//	u32 CRC32C of everything above
//
// All integers little-endian. Decode validates magic, version, the
// checksum, every length against the remaining input (a flipped length
// bit cannot force a huge allocation) and every Dirty byte, so the
// bytes it accepts are exactly the bytes Encode writes. Structural
// compatibility with a Program (state-word count, memory depths) is
// checked by RestoreLane, not here: the same bytes may be restored into
// any lane of any engine running that Program.
//
// Version history: v1 wrote one word per logical slot; v2 writes the
// program's state WORDS, which differ from slots when 1-bit packing is
// active. DecodeSnapshot accepts only the current version: a checkpoint
// is advisory, so an older one degrades to a cycle-0 restart.

var snapshotMagic = [4]byte{'D', 'S', 'N', 'P'}

// SnapshotVersion is the snapshot wire-format version, the only one
// DecodeSnapshot accepts.
const SnapshotVersion = 2

// Snapshot decode errors. ErrSnapshotVersion distinguishes "written by
// another build" from plain corruption (ErrSnapshotCorrupt) so callers
// can log the difference; both degrade the same way (fall back to an
// older checkpoint or cycle 0).
var (
	ErrSnapshotVersion = errors.New("sim: snapshot from incompatible format version")
	ErrSnapshotCorrupt = errors.New("sim: snapshot corrupt")
)

var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the snapshot in the versioned, checksummed wire
// format above.
func (s *Snapshot) Encode() []byte {
	n := 4 + 4 + 8*4 + 4 + 8*len(s.State) + 4 + 4
	for _, m := range s.Mems {
		n += 4 + 8*len(m)
	}
	n += len(s.Dirty) + 4
	buf := make([]byte, 0, n)
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, SnapshotVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Cycles))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.ActsExecuted))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.ActsSkipped))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.DynInstrs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.State)))
	for _, v := range s.State {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Mems)))
	for _, m := range s.Mems {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m)))
		for _, v := range m {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Dirty)))
	for _, d := range s.Dirty {
		b := byte(0)
		if d {
			b = 1
		}
		buf = append(buf, b)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, snapCastagnoli))
}

// snapReader is a bounds-checked little-endian cursor; any overrun trips
// the failed flag instead of panicking, so DecodeSnapshot degrades to an
// error on truncated input.
type snapReader struct {
	buf    []byte
	off    int
	failed bool
}

func (r *snapReader) u32() uint32 {
	if r.failed || r.off+4 > len(r.buf) {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if r.failed || r.off+8 > len(r.buf) {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// u64s reads n words, first checking n fits in the remaining input.
func (r *snapReader) u64s(n uint32) []uint64 {
	if r.failed || r.off+8*int(n) > len(r.buf) || int(n) < 0 {
		r.failed = true
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.buf[r.off:])
		r.off += 8
	}
	return out
}

// DecodeSnapshot parses an Encode-produced snapshot, validating magic,
// version, structure, and checksum. Shape compatibility with a Program
// is checked later, by Restore/RestoreLane.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < 8 || [4]byte(data[0:4]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrSnapshotVersion, v, SnapshotVersion)
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: truncated", ErrSnapshotCorrupt)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, snapCastagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	r := &snapReader{buf: body, off: 8}
	s := &Snapshot{
		Cycles:       int64(r.u64()),
		ActsExecuted: int64(r.u64()),
		ActsSkipped:  int64(r.u64()),
		DynInstrs:    int64(r.u64()),
	}
	s.State = r.u64s(r.u32())
	nMems := r.u32()
	if r.failed || int(nMems) > len(body) {
		return nil, fmt.Errorf("%w: truncated", ErrSnapshotCorrupt)
	}
	s.Mems = make([][]uint64, nMems)
	for i := range s.Mems {
		s.Mems[i] = r.u64s(r.u32())
	}
	nDirty := r.u32()
	if r.failed || r.off+int(nDirty) > len(body) {
		return nil, fmt.Errorf("%w: truncated", ErrSnapshotCorrupt)
	}
	if nDirty > 0 {
		s.Dirty = make([]bool, nDirty)
		for i := range s.Dirty {
			switch b := body[r.off+i]; b {
			case 0:
			case 1:
				s.Dirty[i] = true
			default:
				return nil, fmt.Errorf("%w: dirty flag %d is not 0 or 1", ErrSnapshotCorrupt, b)
			}
		}
		r.off += int(nDirty)
	}
	if r.failed {
		return nil, fmt.Errorf("%w: truncated", ErrSnapshotCorrupt)
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(body)-r.off)
	}
	return s, nil
}
