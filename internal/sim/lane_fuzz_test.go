package sim_test

import (
	"fmt"
	"testing"

	"dedupsim/internal/codegen"
	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

// runLaneEquivalence steps an L-lane BatchEngine next to L one-lane
// Engines and requires every lane's SaveLane snapshot — state, memories,
// Dirty flags and counters — to equal the snapshot of the one-lane engine
// following the same stimulus stream, after every cycle. Halfway through
// it moves state across lane counts both ways: lane k restores a
// one-lane engine's snapshot (and from then on follows that engine's
// stream), and a fresh one-lane engine restored from another lane's
// snapshot replaces that stream's one-lane engine. Both runs must then
// continue bit-exact.
func runLaneEquivalence(t *testing.T, p *codegen.Program, activity bool, lanes int, seed uint64, cycles int) {
	wl := stimulus.VVAddB().WithSeed(seed)
	be, err := sim.NewBatch(p, activity, lanes)
	if err != nil {
		t.Fatal(err)
	}
	// solo[s] is the one-lane engine on stream s; lane l follows stream
	// streamOf[l].
	solo := make([]*sim.Engine, lanes)
	soloDrive := make([]func(int), lanes)
	streamOf := make([]int, lanes)
	laneDrive := make([]func(int), lanes)
	for l := 0; l < lanes; l++ {
		solo[l] = sim.New(p, activity)
		soloDrive[l] = wl.Lane(l).NewEngineDrive(solo[l])
		streamOf[l] = l
		laneDrive[l] = wl.Lane(l).NewLaneDrive(be, l)
	}
	k := int(seed % uint64(lanes))
	j := (k + 1) % lanes
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc == cycles/2 {
			fromSolo := solo[j].Save()
			fromLane, err := be.SaveLane(j)
			if err != nil {
				t.Fatal(err)
			}
			if err := be.RestoreLane(k, fromSolo); err != nil {
				t.Fatal(err)
			}
			streamOf[k] = j
			laneDrive[k] = wl.Lane(j).NewLaneDriveFrom(be, k, cyc)
			solo[j] = sim.New(p, activity)
			if err := solo[j].Restore(fromLane); err != nil {
				t.Fatal(err)
			}
			soloDrive[j] = wl.Lane(j).NewEngineDriveFrom(solo[j], cyc)
		}
		for l := 0; l < lanes; l++ {
			soloDrive[l](cyc)
			solo[l].Step()
			laneDrive[l](cyc)
		}
		be.Step()
		for l := 0; l < lanes; l++ {
			got, err := be.SaveLane(l)
			if err != nil {
				t.Fatal(err)
			}
			snapshotsEqual(t, fmt.Sprintf("cycle %d lane %d (stream %d)", cyc, l, streamOf[l]), got, solo[streamOf[l]].Save())
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// FuzzLaneEquivalence fuzzes lane-count equivalence: for fuzzer-chosen
// designs (every family has memories), stimulus seeds and activity
// modes, each lane of a 2-, 3- or 8-lane BatchEngine must stay snapshot-
// identical with a one-lane engine on the same stream, including across
// a mid-run snapshot restore in each direction. Eight lanes are what the
// sparse lane-list gear needs (2 <= dirty < L/2), so every gear runs.
// The one-lane engines take the class gear wherever a design has class
// runs, which three and four cores give.
func FuzzLaneEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(4), uint64(1), true, uint8(0))
	f.Add(uint8(1), uint8(2), uint8(2), uint64(7), false, uint8(1))
	f.Add(uint8(2), uint8(0), uint8(0), uint64(42), true, uint8(1))
	f.Add(uint8(1), uint8(0), uint8(6), uint64(3), true, uint8(0))
	f.Add(uint8(0), uint8(1), uint8(4), uint64(5), true, uint8(2))
	f.Add(uint8(2), uint8(2), uint8(1), uint64(9), false, uint8(2))
	f.Add(uint8(1), uint8(3), uint8(2), uint64(11), true, uint8(2))
	f.Fuzz(func(t *testing.T, famSel, cores, scalePct uint8, seed uint64, activity bool, laneSel uint8) {
		fams := []gen.Family{gen.Rocket, gen.SmallBoom, gen.LargeBoom}
		fam := fams[int(famSel)%len(fams)]
		nc := 1 + int(cores%4)                   // 1..4 cores
		scale := 0.05 + float64(scalePct%8)*0.01 // 0.05..0.12
		c, err := gen.Build(gen.Config(fam, nc, scale))
		if err != nil {
			t.Skip()
		}
		cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lanes := []int{2, 3, 8}[int(laneSel)%3]
		runLaneEquivalence(t, cv.Program, activity, lanes, seed, 40)
	})
}
