package sim_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

// encodeTestSnapshot runs a real engine a while and saves it, so the
// encoded snapshot has non-trivial state, memories, and dirty flags.
func encodeTestSnapshot(t *testing.T) (*sim.Engine, *sim.Snapshot) {
	t.Helper()
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.1))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(cv.Program, true)
	drive := stimulus.VVAddA().NewEngineDrive(e)
	for cyc := 0; cyc < 97; cyc++ {
		drive(cyc)
		e.Step()
	}
	return e, e.Save()
}

// TestSnapshotEncodeDecodeRoundTrip: Encode/Decode preserves every field,
// and a decoded snapshot restores into an engine that continues
// bit-exactly where the original left off.
func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	e, snap := encodeTestSnapshot(t)
	got, err := sim.DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != snap.Cycles || got.ActsExecuted != snap.ActsExecuted ||
		got.ActsSkipped != snap.ActsSkipped || got.DynInstrs != snap.DynInstrs {
		t.Fatalf("counters diverged: %+v vs %+v", got, snap)
	}
	if len(got.State) != len(snap.State) || len(got.Mems) != len(snap.Mems) || len(got.Dirty) != len(snap.Dirty) {
		t.Fatalf("shape diverged: %d/%d/%d vs %d/%d/%d",
			len(got.State), len(got.Mems), len(got.Dirty),
			len(snap.State), len(snap.Mems), len(snap.Dirty))
	}
	for i, v := range snap.State {
		if got.State[i] != v {
			t.Fatalf("State[%d] = %#x, want %#x", i, got.State[i], v)
		}
	}
	for i, m := range snap.Mems {
		for a, v := range m {
			if got.Mems[i][a] != v {
				t.Fatalf("Mems[%d][%d] = %#x, want %#x", i, a, got.Mems[i][a], v)
			}
		}
	}
	for i, d := range snap.Dirty {
		if got.Dirty[i] != d {
			t.Fatalf("Dirty[%d] = %v, want %v", i, got.Dirty[i], d)
		}
	}

	// Continue the original engine, then restore the decoded snapshot and
	// replay: outputs must match cycle for cycle.
	drive := stimulus.VVAddB().NewEngineDriveFrom(e, 97)
	var first []uint64
	for cyc := 97; cyc < 130; cyc++ {
		drive(cyc)
		e.Step()
		v, _ := e.Output("result")
		first = append(first, v)
	}
	if err := e.Restore(got); err != nil {
		t.Fatal(err)
	}
	drive2 := stimulus.VVAddB().NewEngineDriveFrom(e, 97)
	for i, cyc := 0, 97; cyc < 130; i, cyc = i+1, cyc+1 {
		drive2(cyc)
		e.Step()
		if v, _ := e.Output("result"); v != first[i] {
			t.Fatalf("replay after decode diverged at cycle %d: %#x vs %#x", cyc, v, first[i])
		}
	}
}

// TestSnapshotDecodeRejectsCorruption: any single flipped byte fails the
// checksum (or the magic/version checks) — a torn or bit-rotted
// checkpoint is never loaded — and truncations at every length fail too,
// without panics or huge allocations.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	_, snap := encodeTestSnapshot(t)
	data := snap.Encode()
	if _, err := sim.DecodeSnapshot(data); err != nil {
		t.Fatal(err)
	}
	stride := len(data)/97 + 1
	for off := 0; off < len(data); off += stride {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		if _, err := sim.DecodeSnapshot(mut); err == nil {
			t.Fatalf("flip at %d: decode succeeded on corrupt snapshot", off)
		}
	}
	for _, cut := range []int{0, 3, 7, 11, 20, len(data) / 2, len(data) - 1} {
		if _, err := sim.DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes: decode succeeded", cut)
		}
	}
}

// TestSnapshotDecodeVersionMismatch: a future-version snapshot is
// rejected with ErrSnapshotVersion, distinct from plain corruption.
func TestSnapshotDecodeVersionMismatch(t *testing.T) {
	_, snap := encodeTestSnapshot(t)
	data := snap.Encode()
	binary.LittleEndian.PutUint32(data[4:8], sim.SnapshotVersion+1)
	_, err := sim.DecodeSnapshot(data)
	if !errors.Is(err, sim.ErrSnapshotVersion) {
		t.Fatalf("decode of future version: %v, want ErrSnapshotVersion", err)
	}
	if errors.Is(err, sim.ErrSnapshotCorrupt) {
		t.Fatal("version mismatch also reported as corruption")
	}
}

// asV1 rewrites an encoded snapshot's version field to 1 and re-seals the
// checksum — byte-for-byte what a pre-packing build would have written,
// since v1 and v2 share the layout.
func asV1(data []byte) []byte {
	v1 := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	body := v1[:len(v1)-4]
	binary.LittleEndian.PutUint32(v1[len(v1)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return v1
}

// TestSnapshotV1Rejected: a version-1 checkpoint (written before 1-bit
// state packing, one word per slot) is rejected with ErrSnapshotVersion,
// not misread as the current layout and not reported as corruption.
func TestSnapshotV1Rejected(t *testing.T) {
	_, snap := encodeTestSnapshot(t)
	_, err := sim.DecodeSnapshot(asV1(snap.Encode()))
	if !errors.Is(err, sim.ErrSnapshotVersion) {
		t.Fatalf("decode of v1 snapshot: %v, want ErrSnapshotVersion", err)
	}
	if errors.Is(err, sim.ErrSnapshotCorrupt) {
		t.Fatal("v1 snapshot also reported as corruption")
	}
}
