package codegen_test

import (
	"testing"

	"dedupsim/internal/codegen"
	"dedupsim/internal/dedup"
	"dedupsim/internal/gen"
	"dedupsim/internal/sched"
)

// TestEveryOpcodeEmitted requires every OpCode to appear in some Program
// compiled from the four generated families at 2C@0.1 under Dedup, with
// fusion on, fusion off, and fusion and packing off. Each opcode costs a
// case in every interpreter, so a fused form no design produces is dead
// weight in the hot loop; this keeps one from arriving unnoticed.
func TestEveryOpcodeEmitted(t *testing.T) {
	seen := map[codegen.OpCode]bool{}
	for _, f := range gen.Families {
		c := gen.MustBuild(gen.Config(f, 2, 0.1))
		g := c.SchedGraph()
		dr, err := dedup.Deduplicate(c, g, dedup.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.LocalityAware(dr.Part.Quotient(g), dr.Class)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []codegen.Options{{}, {DisableFusion: true}, {DisableFusion: true, DisablePacking: true}} {
			p, err := codegen.Compile(c, dr, s, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range p.Kernels {
				for i := range k.Code {
					seen[k.Code[i].Op] = true
				}
			}
		}
	}
	// KBinBits is the last opcode; a new one after it must move this bound.
	for op := codegen.KConst; op <= codegen.KBinBits; op++ {
		if !seen[op] {
			t.Errorf("opcode %d (ir.go order) is never emitted", op)
		}
	}
	for op := range seen {
		if op > codegen.KBinBits {
			t.Errorf("opcode %d is past KBinBits; extend the loop bound above", op)
		}
	}
}
