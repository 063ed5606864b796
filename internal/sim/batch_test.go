package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dedupsim/internal/circuit"
	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

// TestBatchEngineDifferential pins the batch engine's contract: a
// BatchEngine with L lanes is bit-exact against L independent scalar
// Engines on the same per-lane seeds — outputs every cycle, the full
// state vector (a superset of the VCD-visible slots) at the end, and the
// SimStats counters (cycles, activations executed/skipped, dynamic
// instructions) — on a shared-kernel (deduped) design with activity
// skipping both on and off.
func TestBatchEngineDifferential(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 2, 0.2))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Dedup == nil || cv.Dedup.NumClasses == 0 {
		t.Fatal("test design has no shared kernel classes; differential test would not cover KLoadExt/KStoreExt")
	}
	const cycles = 120
	wl := stimulus.VVAddA()

	var outNames []string
	for _, o := range c.Outputs() {
		outNames = append(outNames, c.Names[o])
	}

	for _, lanes := range []int{1, 3, 8} {
		for _, activity := range []bool{true, false} {
			t.Run(fmt.Sprintf("L%d_activity=%v", lanes, activity), func(t *testing.T) {
				be, err := sim.NewBatch(cv.Program, activity, lanes)
				if err != nil {
					t.Fatal(err)
				}
				scalars := make([]*sim.Engine, lanes)
				scalarDrive := make([]func(int), lanes)
				laneDrive := make([]func(int), lanes)
				for l := 0; l < lanes; l++ {
					scalars[l] = sim.New(cv.Program, activity)
					scalarDrive[l] = wl.Lane(l).NewEngineDrive(scalars[l])
					laneDrive[l] = wl.Lane(l).NewLaneDrive(be, l)
				}

				for cyc := 0; cyc < cycles; cyc++ {
					for l := 0; l < lanes; l++ {
						scalarDrive[l](cyc)
						scalars[l].Step()
						laneDrive[l](cyc)
					}
					be.Step()
					for l := 0; l < lanes; l++ {
						for _, name := range outNames {
							want, _ := scalars[l].Output(name)
							got, err := be.Output(l, name)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("cycle %d lane %d output %q: batch %#x, scalar %#x",
									cyc, l, name, got, want)
							}
						}
					}
				}

				for l := 0; l < lanes; l++ {
					for s := int32(0); s < int32(cv.Program.NumSlots); s++ {
						if got, want := be.Slot(l, s), scalars[l].Slot(s); got != want {
							t.Fatalf("lane %d slot %d: batch %#x, scalar %#x", l, s, got, want)
						}
					}
					if be.Cycles[l] != scalars[l].Cycles {
						t.Errorf("lane %d cycles: batch %d, scalar %d", l, be.Cycles[l], scalars[l].Cycles)
					}
					if be.ActsExecuted[l] != scalars[l].ActsExecuted ||
						be.ActsSkipped[l] != scalars[l].ActsSkipped {
						t.Errorf("lane %d activations: batch %d/%d, scalar %d/%d",
							l, be.ActsExecuted[l], be.ActsSkipped[l],
							scalars[l].ActsExecuted, scalars[l].ActsSkipped)
					}
					if be.DynInstrs[l] != scalars[l].DynInstrs {
						t.Errorf("lane %d dyn instrs: batch %d, scalar %d",
							l, be.DynInstrs[l], scalars[l].DynInstrs)
					}
				}
				if activity {
					if be.ActsSkipped[0] == 0 {
						t.Error("activity mode skipped nothing; test design too busy to exercise skipping")
					}
				} else if be.ActsSkipped[0] != 0 {
					t.Errorf("activity off but %d activations skipped", be.ActsSkipped[0])
				}
			})
		}
	}
}

// TestBatchRandomCircuitsMatchScalar runs random circuits — every
// operator, including those no bench design executes and the lane
// helpers leave to EvalBinMask — on an 8-lane BatchEngine next to eight
// one-lane Engines, with activity skipping on and off. Lane l redraws
// its inputs on about (l+1)/16 of the cycles, so dirty-lane counts vary
// and every interpreter gear runs. Outputs are compared every cycle and
// the full state vector at the end.
func TestBatchRandomCircuitsMatchScalar(t *testing.T) {
	const lanes, cycles = 8, 40
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 6; trial++ {
		c := randomCircuit(rng, 60+rng.Intn(100))
		cv, err := harness.CompileVariant(c, harness.ESSENT, partition.Options{MaxSize: 8 + rng.Intn(24)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, activity := range []bool{true, false} {
			be, err := sim.NewBatch(cv.Program, activity, lanes)
			if err != nil {
				t.Fatal(err)
			}
			scalars := make([]*sim.Engine, lanes)
			for l := range scalars {
				scalars[l] = sim.New(cv.Program, activity)
			}
			for cyc := 0; cyc < cycles; cyc++ {
				for l := 0; l < lanes; l++ {
					if cyc > 0 && rng.Intn(2*lanes) > l {
						continue
					}
					for _, in := range c.Inputs() {
						v := rng.Uint64() & circuit.Mask(c.Width[in])
						if err := be.SetInput(l, c.Names[in], v); err != nil {
							t.Fatal(err)
						}
						if err := scalars[l].SetInput(c.Names[in], v); err != nil {
							t.Fatal(err)
						}
					}
				}
				be.Step()
				for l, e := range scalars {
					e.Step()
					for _, out := range c.Outputs() {
						want, _ := e.Output(c.Names[out])
						if got, _ := be.Output(l, c.Names[out]); got != want {
							t.Fatalf("trial %d activity=%v cycle %d lane %d output %q: batch %#x, scalar %#x",
								trial, activity, cyc, l, c.Names[out], got, want)
						}
					}
				}
			}
			for l, e := range scalars {
				for s := int32(0); s < int32(cv.Program.NumSlots); s++ {
					if got, want := be.Slot(l, s), e.Slot(s); got != want {
						t.Fatalf("trial %d activity=%v lane %d slot %d: batch %#x, scalar %#x",
							trial, activity, l, s, got, want)
					}
				}
			}
		}
	}
}

// TestBatchEngineLaneEarlyExit checks per-lane early exit: deactivating a
// lane freezes its state and counters at its own cycle count while the
// surviving lanes keep advancing bit-exactly.
func TestBatchEngineLaneEarlyExit(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.15))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		lanes     = 4
		stopLane  = 1
		stopCycle = 40
		cycles    = 100
	)
	wl := stimulus.VVAddB()

	be, err := sim.NewBatch(cv.Program, true, lanes)
	if err != nil {
		t.Fatal(err)
	}
	scalars := make([]*sim.Engine, lanes)
	scalarDrive := make([]func(int), lanes)
	laneDrive := make([]func(int), lanes)
	for l := 0; l < lanes; l++ {
		scalars[l] = sim.New(cv.Program, true)
		scalarDrive[l] = wl.Lane(l).NewEngineDrive(scalars[l])
		laneDrive[l] = wl.Lane(l).NewLaneDrive(be, l)
	}

	for cyc := 0; cyc < cycles; cyc++ {
		if cyc == stopCycle {
			be.Deactivate(stopLane)
			if be.LaneActive(stopLane) || be.ActiveLanes() != lanes-1 {
				t.Fatal("lane deactivation not reflected in active set")
			}
		}
		for l := 0; l < lanes; l++ {
			if l == stopLane && cyc >= stopCycle {
				continue // the scalar twin stops exactly where the lane did
			}
			scalarDrive[l](cyc)
			scalars[l].Step()
			laneDrive[l](cyc)
		}
		be.Step()
	}

	for l := 0; l < lanes; l++ {
		wantCycles := int64(cycles)
		if l == stopLane {
			wantCycles = stopCycle
		}
		if be.Cycles[l] != wantCycles || scalars[l].Cycles != wantCycles {
			t.Fatalf("lane %d cycles: batch %d, scalar %d, want %d",
				l, be.Cycles[l], scalars[l].Cycles, wantCycles)
		}
		for s := int32(0); s < int32(cv.Program.NumSlots); s++ {
			if got, want := be.Slot(l, s), scalars[l].Slot(s); got != want {
				t.Fatalf("lane %d slot %d after early exit: batch %#x, scalar %#x", l, s, got, want)
			}
		}
		if be.ActsExecuted[l] != scalars[l].ActsExecuted {
			t.Errorf("lane %d executed: batch %d, scalar %d",
				l, be.ActsExecuted[l], scalars[l].ActsExecuted)
		}
	}
}

// TestBatchEngineLaneLimits pins the lane-count contract.
func TestBatchEngineLaneLimits(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewBatch(cv.Program, true, 0); err == nil {
		t.Error("lanes=0 accepted")
	}
	if _, err := sim.NewBatch(cv.Program, true, sim.MaxBatchLanes+1); err == nil {
		t.Error("lanes beyond MaxBatchLanes accepted")
	}
	be, err := sim.NewBatch(cv.Program, true, sim.MaxBatchLanes)
	if err != nil {
		t.Fatalf("lanes=%d rejected: %v", sim.MaxBatchLanes, err)
	}
	if be.Lanes() != sim.MaxBatchLanes || be.ActiveLanes() != sim.MaxBatchLanes {
		t.Error("lane accessors disagree with construction")
	}
}

// TestEngineDriveMatchesNamedDrive pins the handle-based fast drive to
// the generic named drive: same workload, same engine behavior.
func TestEngineDriveMatchesNamedDrive(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wl := stimulus.VVAddB()
	eNamed := sim.New(cv.Program, true)
	eHandle := sim.New(cv.Program, true)
	named := wl.NewDrive()
	handle := wl.NewEngineDrive(eHandle)
	for cyc := 0; cyc < 200; cyc++ {
		named(eNamed, cyc)
		handle(cyc)
		eNamed.Step()
		eHandle.Step()
	}
	for s := int32(0); s < int32(cv.Program.NumSlots); s++ {
		if eNamed.Slot(s) != eHandle.Slot(s) {
			t.Fatalf("slot %d: named drive %#x, handle drive %#x", s, eNamed.Slot(s), eHandle.Slot(s))
		}
	}
	if eNamed.ActsExecuted != eHandle.ActsExecuted {
		t.Fatalf("activation counters diverged: %d vs %d", eNamed.ActsExecuted, eHandle.ActsExecuted)
	}
}
