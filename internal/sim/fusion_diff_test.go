package sim_test

import (
	"math/rand"
	"testing"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
	"dedupsim/internal/dedup"
	"dedupsim/internal/gen"
	"dedupsim/internal/sched"
	"dedupsim/internal/sim"
)

// compileOpt runs the full dedup pipeline on c and compiles with the
// given codegen options, so fused/packed and plain programs share the
// exact partitioning, classes, and schedule.
func compileOpt(t testing.TB, c *circuit.Circuit, opt codegen.Options) *codegen.Program {
	t.Helper()
	g := c.SchedGraph()
	dr, err := dedup.Deduplicate(c, g, dedup.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.LocalityAware(dr.Part.Quotient(g), dr.Class)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Compile(c, dr, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runFusionDiff drives a fused+packed engine, an unfused engine, and the
// reference interpreter with identical stimulus for n cycles and requires
// identical per-cycle outputs, every register equal to the reference's
// every cycle, identical logical state between the two engines every
// cycle, and identical activity counters — fusion and packing must be
// invisible except in speed.
func runFusionDiff(t *testing.T, c *circuit.Circuit, activity bool, n int, seed int64) {
	fused := compileOpt(t, c, codegen.Options{})
	plain := compileOpt(t, c, codegen.Options{DisableFusion: true, DisablePacking: true})
	if fused.Fusion.InstrsAfter >= fused.Fusion.InstrsBefore {
		t.Logf("note: no instructions fused on %s", c.Name)
	}
	ef := sim.New(fused, activity)
	ep := sim.New(plain, activity)
	ref, err := sim.NewRef(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := c.Inputs()
	outputs := c.Outputs()
	regs := c.Registers()
	for cyc := 0; cyc < n; cyc++ {
		for _, in := range inputs {
			v := rng.Uint64() & circuit.Mask(c.Width[in])
			if rng.Intn(4) == 0 {
				v = 0 // idle bursts exercise activity skipping
			}
			name := c.Names[in]
			for _, e := range []interface {
				SetInput(string, uint64) error
			}{ef, ep, ref} {
				if err := e.SetInput(name, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		ef.Step()
		ep.Step()
		ref.Step()
		for _, out := range outputs {
			name := c.Names[out]
			want, _ := ref.Output(name)
			gotF, _ := ef.Output(name)
			gotP, _ := ep.Output(name)
			if gotF != want || gotP != want {
				t.Fatalf("%s cycle %d output %q: fused %#x, unfused %#x, reference %#x",
					c.Name, cyc, name, gotF, gotP, want)
			}
		}
		for _, r := range regs {
			want := ref.Value(r)
			gotF, gotP := ef.Slot(fused.SlotOfNode[r]), ep.Slot(plain.SlotOfNode[r])
			if gotF != want || gotP != want {
				t.Fatalf("%s cycle %d register %q: fused %#x, unfused %#x, reference %#x",
					c.Name, cyc, c.Names[r], gotF, gotP, want)
			}
		}
		// Full logical state, compared per NODE: packing changes slot
		// numbering, so the shared key is the circuit node. Slot resolves
		// packed bits back to logical values.
		for v := 0; v < c.NumNodes(); v++ {
			sf, sp := fused.SlotOfNode[v], plain.SlotOfNode[v]
			if sf < 0 || sp < 0 {
				continue
			}
			if got, want := ef.Slot(sf), ep.Slot(sp); got != want {
				t.Fatalf("%s cycle %d node %d (%s): fused %#x, unfused %#x",
					c.Name, cyc, v, c.Names[v], got, want)
			}
		}
	}
	// Fusion rewrites instructions, never activation semantics: the skip
	// counters must match exactly. (DynInstrs legitimately differs — the
	// fused program executes fewer instructions.)
	if ef.ActsExecuted != ep.ActsExecuted || ef.ActsSkipped != ep.ActsSkipped {
		t.Fatalf("%s: fused acts %d/%d, unfused %d/%d",
			c.Name, ef.ActsExecuted, ef.ActsSkipped, ep.ActsExecuted, ep.ActsSkipped)
	}
}

// TestFusionDifferential is the deterministic fused-vs-unfused-vs-
// reference equivalence check, with activity skipping both on and off.
func TestFusionDifferential(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.2))
	runFusionDiff(t, c, true, 80, 7)
	runFusionDiff(t, c, false, 40, 11)
}

// FuzzLowerFusion fuzzes the superinstruction-fusion and 1-bit-packing
// lowering: for fuzzer-chosen design shapes and stimulus seeds, a fused+
// packed program must stay cycle-exact (outputs, full logical state, and
// activity counters) with the unfused program, and every register with
// the reference interpreter.
func FuzzLowerFusion(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(8), int64(1), true)
	f.Add(uint8(0), uint8(1), uint8(10), int64(42), false)
	f.Add(uint8(1), uint8(3), uint8(6), int64(99), true)
	f.Fuzz(func(t *testing.T, famSel, cores, scalePct uint8, seed int64, activity bool) {
		fam := gen.Rocket
		if famSel%2 == 1 {
			fam = gen.SmallBoom
		}
		nc := 1 + int(cores%3)                   // 1..3 cores
		scale := 0.05 + float64(scalePct%8)*0.01 // 0.05..0.12
		c, err := gen.Build(gen.Config(fam, nc, scale))
		if err != nil {
			t.Skip()
		}
		runFusionDiff(t, c, activity, 24, seed)
	})
}
