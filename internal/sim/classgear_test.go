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

// TestClassGearMatchesPerActivation steps an engine that takes the class
// gear next to one held on the per-activation path by a no-op
// OnActivation hook, and requires equal snapshots — state, memories,
// Dirty flags and counters — after every cycle. A third of the way in a
// fresh gear engine restores the reference's snapshot and replaces the
// gear engine; two thirds in, a fresh hooked engine restores the gear
// engine's snapshot and replaces the reference. Every family runs at
// three sizes under Dedup, NL and Verilator, plus Dedup with activity
// skipping off.
func TestClassGearMatchesPerActivation(t *testing.T) {
	variants := []struct {
		v           harness.Variant
		activityOff bool
	}{{harness.Dedup, false}, {harness.NL, false}, {harness.Verilator, false}, {harness.Dedup, true}}
	sizes := []struct {
		cores int
		scale float64
	}{{2, 0.1}, {4, 0.3}, {8, 0.1}}
	const cycles = 36
	for _, fam := range gen.Families {
		for _, sz := range sizes {
			c := gen.MustBuild(gen.Config(fam, sz.cores, sz.scale))
			for _, vr := range variants {
				cv, err := harness.CompileVariant(c, vr.v, partition.Options{})
				if err != nil {
					t.Fatal(err)
				}
				activity := cv.Activity && !vr.activityOff
				name := fmt.Sprintf("%s-%dC@%v/%s/activity=%v", fam, sz.cores, sz.scale, vr.v, activity)
				t.Run(name, func(t *testing.T) {
					if vr.v == harness.Dedup && sz.cores >= 4 && longestRun(cv.Program) < codegen.MinClassRun {
						t.Fatalf("no class run: the gear never runs here")
					}
					runClassGearEquivalence(t, cv.Program, activity, uint64(sz.cores), cycles)
				})
			}
		}
	}
}

// longestRun is the member count of p's longest class run.
func longestRun(p *codegen.Program) int {
	n := 0
	for _, r := range p.ClassRuns {
		n = max(n, int(r.Len))
	}
	return n
}

func runClassGearEquivalence(t *testing.T, p *codegen.Program, activity bool, seed uint64, cycles int) {
	wl := stimulus.VVAddB().WithSeed(seed)
	hooked := func() *sim.Engine {
		e := sim.New(p, activity)
		e.OnActivation = func(int32) {}
		return e
	}
	gear, ref := sim.New(p, activity), hooked()
	gearDrive, refDrive := wl.NewEngineDrive(gear), wl.NewEngineDrive(ref)
	for cyc := 0; cyc < cycles; cyc++ {
		switch cyc {
		case cycles / 3:
			gear = sim.New(p, activity)
			if err := gear.Restore(ref.Save()); err != nil {
				t.Fatal(err)
			}
			gearDrive = wl.NewEngineDriveFrom(gear, cyc)
		case 2 * cycles / 3:
			ref = hooked()
			if err := ref.Restore(gear.Save()); err != nil {
				t.Fatal(err)
			}
			refDrive = wl.NewEngineDriveFrom(ref, cyc)
		}
		gearDrive(cyc)
		gear.Step()
		refDrive(cyc)
		ref.Step()
		snapshotsEqual(t, fmt.Sprintf("cycle %d", cyc), gear.Save(), ref.Save())
		if t.Failed() {
			t.FailNow()
		}
	}
}
