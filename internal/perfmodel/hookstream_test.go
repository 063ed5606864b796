package perfmodel_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/perfmodel"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

// traceDigest folds a recorded trace's hook stream — every cycle's
// executed activation indices and memory lines, in order, plus the
// modeled instruction total — into one FNV-64a value.
func traceDigest(tr *perfmodel.Trace) (digest uint64, acts, lines int) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for cyc := range tr.Cycles {
		put(uint64(len(tr.Cycles[cyc])))
		for _, a := range tr.Cycles[cyc] {
			put(uint64(a))
		}
		put(uint64(len(tr.MemLines[cyc])))
		for _, l := range tr.MemLines[cyc] {
			put(l)
		}
		acts += len(tr.Cycles[cyc])
		lines += len(tr.MemLines[cyc])
	}
	put(uint64(tr.TotalInstrs))
	return h.Sum64(), acts, lines
}

// TestRecordHookStreamPinned pins the exact OnActivation/OnMemAccess
// stream Record observes on one small design under stimulus B, with
// activity skipping on and off. Every cache and branch figure the model
// reports is a function of this stream, so an engine change that
// reorders, drops or duplicates a hook call fails here even when the
// model's shape tests still pass.
func TestRecordHookStreamPinned(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.15))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		activity    bool
		digest      uint64
		acts, lines int
		instrs      int64
	}{
		{"activity", true, 0x56a9e8be235b7cb3, 5207, 561, 172026},
		{"full", false, 0x3200b0c37a04b79e, 11600, 770, 424600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drive := stimulus.VVAddB().NewDrive()
			tr := perfmodel.Record(cv.Program, tc.activity, 200,
				func(e *sim.Engine, cyc int) { drive(e, cyc) })
			d, acts, lines := traceDigest(tr)
			if d != tc.digest || acts != tc.acts || lines != tc.lines || tr.TotalInstrs != tc.instrs {
				t.Fatalf("hook stream changed: digest %#x acts %d lines %d instrs %d, want %#x %d %d %d",
					d, acts, lines, tr.TotalInstrs, tc.digest, tc.acts, tc.lines, tc.instrs)
			}
		})
	}
}
