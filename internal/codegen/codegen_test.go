package codegen

import (
	"testing"

	"dedupsim/internal/circuit"
	"dedupsim/internal/dedup"
	"dedupsim/internal/gen"
	"dedupsim/internal/partition"
	"dedupsim/internal/sched"
)

// compile builds a program for a design under the baseline or dedup flow.
func compile(t *testing.T, c *circuit.Circuit, useDedup bool, opt Options) *Program {
	t.Helper()
	g := c.SchedGraph()
	var dr *dedup.Result
	var err error
	if useDedup {
		dr, err = dedup.Deduplicate(c, g, dedup.Options{})
	} else {
		var res *partition.Result
		res, err = partition.Partition(g, partition.Options{})
		if err == nil {
			dr = dedup.BaselineResult(res)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Baseline(dr.Part.Quotient(g))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(c, dr, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSlotAssignmentRules(t *testing.T) {
	b := circuit.NewBuilder("slots")
	x := b.Input("x", 8)
	r := b.Reg("r", 8, 5)
	sum := b.Binary(circuit.OpAdd, x, r)
	b.SetRegNext(r, sum)
	mem := b.Memory("m", 8, 8)
	b.MemWrite(mem, x, sum, b.Const(1, 1))
	q := b.MemRead(mem, x)
	b.Output("y", q)
	c := b.MustFinish()

	p := compile(t, c, false, Options{})
	if p.SlotOfNode[x] < 0 {
		t.Fatal("input needs a slot")
	}
	if p.SlotOfNode[r] < 0 {
		t.Fatal("register needs a slot")
	}
	if len(p.Regs) != 1 || p.Regs[0].Reset != 5 || p.Regs[0].En != -1 {
		t.Fatalf("reg spec wrong: %+v", p.Regs)
	}
	if p.Regs[0].Cur == p.Regs[0].Next {
		t.Fatal("register cur/next must be distinct slots")
	}
	if len(p.WritePorts) != 1 {
		t.Fatalf("write ports = %d", len(p.WritePorts))
	}
	if len(p.Inputs) != 1 || p.Inputs[0].Name != "x" {
		t.Fatalf("inputs = %+v", p.Inputs)
	}
	if len(p.Outputs) != 1 || p.Outputs[0].Name != "y" {
		t.Fatalf("outputs = %+v", p.Outputs)
	}
}

func TestRegEnGetsEnableSlot(t *testing.T) {
	b := circuit.NewBuilder("regen")
	x := b.Input("x", 8)
	en := b.Input("en", 1)
	r := b.RegEn("r", 8, 0)
	b.SetRegNextEn(r, x, en)
	b.Output("y", r)
	c := b.MustFinish()
	p := compile(t, c, false, Options{})
	if len(p.Regs) != 1 || p.Regs[0].En < 0 {
		t.Fatalf("regen lost its enable slot: %+v", p.Regs)
	}
}

func TestDedupSharesKernelsAcrossInstances(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 4, 0.12))
	p := compile(t, c, true, Options{})
	// Count activations per kernel: shared kernels must be used by
	// multiple partitions.
	uses := map[int32]int{}
	for _, act := range p.Activations {
		uses[act.Kernel]++
	}
	shared := 0
	for _, k := range p.Kernels {
		if !k.Shared {
			continue
		}
		shared++
		if uses[k.ID] < 2 {
			t.Fatalf("shared kernel %d used %d times", k.ID, uses[k.ID])
		}
		if k.NumExt == 0 {
			t.Fatalf("shared kernel %d has no ext table", k.ID)
		}
	}
	if shared == 0 {
		t.Fatal("no shared kernels on a 4-core design")
	}
	// Every shared activation needs a matching ext table.
	for i := range p.Activations {
		act := &p.Activations[i]
		k := p.Kernels[act.Kernel]
		if k.Shared && len(act.Ext) != k.NumExt {
			t.Fatalf("activation %d: ext %d != kernel NumExt %d", i, len(act.Ext), k.NumExt)
		}
		if !k.Shared && act.Ext != nil {
			t.Fatalf("direct activation %d carries an ext table", i)
		}
	}
}

func TestDirectKernelsHaveNoExtOps(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.12))
	p := compile(t, c, true, Options{})
	for _, k := range p.Kernels {
		for _, in := range k.Code {
			ext := in.Op == KLoadExt || in.Op == KStoreExt
			if ext && !k.Shared {
				t.Fatalf("direct kernel %d contains %v", k.ID, in.Op)
			}
			if !ext && (in.Op == KLoad || in.Op == KStore) && k.Shared {
				t.Fatalf("shared kernel %d contains absolute %v", k.ID, in.Op)
			}
		}
	}
}

func TestSharedKernelCostsMoreDynInstrs(t *testing.T) {
	// The same code body must cost more instructions in shared form than
	// inlined (the dedup tax is visible in the cost model).
	k1 := &Kernel{Shared: false, Code: []Instr{
		{Op: KLoad}, {Op: KBin}, {Op: KStore},
	}}
	k2 := &Kernel{Shared: true, Code: []Instr{
		{Op: KLoadExt}, {Op: KBin}, {Op: KStoreExt},
	}}
	costKernel(k1)
	costKernel(k2)
	if k2.DynInstrs <= k1.DynInstrs {
		t.Fatalf("indirection not taxed: %d <= %d", k2.DynInstrs, k1.DynInstrs)
	}
	if k2.CodeBytes <= k1.CodeBytes {
		t.Fatalf("indirect encodings not larger: %d <= %d", k2.CodeBytes, k1.CodeBytes)
	}
}

func TestBranchSitesCountMuxes(t *testing.T) {
	k := &Kernel{Code: []Instr{{Op: KMux}, {Op: KMux}, {Op: KBin}}}
	costKernel(k)
	if k.BranchSites != 3 { // 2 muxes + dispatch
		t.Fatalf("branch sites = %d, want 3", k.BranchSites)
	}
}

func TestFineGrainDedupOnlySmallKernels(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 2, 0.12))
	p := compile(t, c, false, Options{FineGrainDedup: true})
	shared := 0
	for _, k := range p.Kernels {
		if !k.Shared {
			continue
		}
		shared++
		if len(k.Code) > fineGrainMaxInstrs {
			t.Fatalf("fine-grained sharing touched a %d-instruction kernel", len(k.Code))
		}
	}
	if shared == 0 {
		t.Fatal("fine-grained sharing shared no kernel")
	}
}

func TestTouchedSlotsCoverConsumedValues(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.12))
	p := compile(t, c, true, Options{})
	for i := range p.Activations {
		act := &p.Activations[i]
		seen := map[int32]bool{}
		for _, s := range act.TouchedSlots {
			if s < 0 || int(s) >= p.NumSlots {
				t.Fatalf("activation %d: slot %d out of range", i, s)
			}
			if seen[s] {
				t.Fatalf("activation %d: slot %d duplicated", i, s)
			}
			seen[s] = true
		}
	}
}

func TestConsumersMapIsConsistent(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.12))
	p := compile(t, c, true, Options{})
	check := func(what string, off, edge []int32, n int) {
		if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(edge) {
			t.Fatalf("%s map: %d offsets for %d entries, last %d of %d edges", what, len(off), n, off[len(off)-1], len(edge))
		}
		for i := 0; i < n; i++ {
			if off[i] > off[i+1] {
				t.Fatalf("%s %d: offsets decrease", what, i)
			}
		}
		for _, pt := range edge {
			if pt < 0 || int(pt) >= p.NumParts {
				t.Fatalf("%s map: consumer partition %d out of range", what, pt)
			}
		}
	}
	check("slot", p.SlotConsOff, p.SlotConsEdge, p.NumSlots)
	check("mem", p.MemConsOff, p.MemConsEdge, len(p.Mems))
}

func TestHashCodeDistinguishes(t *testing.T) {
	a := []Instr{{Op: KBin, BinOp: circuit.OpAdd, Width: 8}}
	b := []Instr{{Op: KBin, BinOp: circuit.OpSub, Width: 8}}
	cc := []Instr{{Op: KBin, BinOp: circuit.OpAdd, Width: 9}}
	if hashCode(a) == hashCode(b) || hashCode(a) == hashCode(cc) {
		t.Fatal("hash collisions on tiny distinct kernels")
	}
	if hashCode(a) != hashCode([]Instr{{Op: KBin, BinOp: circuit.OpAdd, Width: 8}}) {
		t.Fatal("hash not deterministic")
	}
	if !sameCode(a, a) || sameCode(a, b) {
		t.Fatal("sameCode wrong")
	}
}

func TestUniqueCodeBytesSumsKernels(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.12))
	p := compile(t, c, true, Options{})
	sum := 0
	for _, k := range p.Kernels {
		sum += k.CodeBytes
	}
	if p.UniqueCodeBytes != sum {
		t.Fatalf("UniqueCodeBytes %d != sum %d", p.UniqueCodeBytes, sum)
	}
}
