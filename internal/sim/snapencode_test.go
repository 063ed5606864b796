package sim_test

import (
	"bytes"
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

// reseal returns a copy of data (at least 4 bytes) with its trailing
// CRC32C recomputed over everything before it, so a mutated body reaches
// the structural checks behind the checksum.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// asV1 rewrites an encoded snapshot's version field to 1 and re-seals the
// checksum — byte-for-byte what a pre-packing build would have written,
// since v1 and v2 share the layout.
func asV1(data []byte) []byte {
	v1 := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	return reseal(v1)
}

// TestSnapshotDecodeRejectsResealed: a body that is malformed behind a
// valid checksum is rejected as corrupt, so DecodeSnapshot accepts only
// what Encode writes.
func TestSnapshotDecodeRejectsResealed(t *testing.T) {
	_, snap := encodeTestSnapshot(t)
	data := snap.Encode()
	if len(snap.Dirty) == 0 {
		t.Fatal("test snapshot has no Dirty flags")
	}
	lastDirty := len(data) - 5
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"dirty flag 2", func(b []byte) []byte { b[lastDirty] = 2; return b }},
		{"dirty flag 0xff", func(b []byte) []byte { b[lastDirty] = 0xff; return b }},
		{"trailing byte", func(b []byte) []byte { return append(b[:len(b)-4:len(b)-4], 0, 0, 0, 0, 0) }},
		{"state length overrun", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[40:44], 1<<30); return b }},
	} {
		mut := reseal(tc.mut(append([]byte(nil), data...)))
		if _, err := sim.DecodeSnapshot(mut); !errors.Is(err, sim.ErrSnapshotCorrupt) {
			t.Errorf("%s: decode returned %v, want ErrSnapshotCorrupt", tc.name, err)
		}
	}
}

// FuzzDecodeSnapshot feeds DecodeSnapshot arbitrary bodies behind a
// re-sealed checksum. It must never panic, and a snapshot it accepts
// must re-encode to exactly the input bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.1))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		f.Fatal(err)
	}
	be, err := sim.NewBatch(cv.Program, true, 2)
	if err != nil {
		f.Fatal(err)
	}
	drive := stimulus.VVAddA().Lane(1).NewLaneDrive(be, 1)
	for cyc := 0; cyc < 61; cyc++ {
		drive(cyc)
		be.Step()
	}
	snap, err := be.SaveLane(1)
	if err != nil {
		f.Fatal(err)
	}
	data := snap.Encode()
	f.Add(data)
	f.Add(data[:len(data)/2])
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = reseal(data)
		}
		snap, err := sim.DecodeSnapshot(data)
		if err != nil {
			return
		}
		if again := snap.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
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
