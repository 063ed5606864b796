package codegen

// ClassRun is a stretch of adjacent activations of one shared kernel
// whose members are pairwise independent: no member reads or writes a
// logical state slot that another member writes. The one-lane engine
// may then interpret the kernel once across the run's dirty members,
// instruction by instruction with the instance as lane, and reach the
// same state, dirty flags and counters as running them one by one in
// schedule order (DESIGN.md "The interpreter hot path").
type ClassRun struct {
	// Start indexes the run's first member in Program.Activations.
	Start int32
	// Len is the member count, at least MinClassRun.
	Len int32
}

// MinClassRun is the fewest members a class run holds, and the fewest
// dirty members for which the one-lane engine interprets a run in one
// pass instead of one activation at a time. Below it the per-member
// gather and the stride-n temp layout cost more than the dispatches
// they save: a minimum of 2 ran 2-5 % slower than the per-activation
// path on the 2-core designs, while 3 breaks even there and keeps the
// 4- and 8-core gains (DESIGN.md "The interpreter hot path" has the
// table).
const MinClassRun = 3

// extAccess lists the Ext-table indices a shared kernel's code reads
// and writes.
type extAccess struct {
	reads, writes []int32
}

// kernelAccess returns k's Ext reads and writes, or nil when k cannot
// join a run: a direct kernel, or code with an opcode the one-lane class
// pass (sim's execClass) does not implement. Absolute state accesses are
// among those, since they would be the same slot in every member; an
// opcode added later stays off runs until it is listed here and there.
func kernelAccess(k *Kernel) *extAccess {
	if !k.Shared {
		return nil
	}
	ea := &extAccess{}
	for i := range k.Code {
		in := &k.Code[i]
		switch in.Op {
		case KConst, KBin, KNot, KMux, KBits, KMemRead, KBinI, KNotAnd, KMuxMux, KBinBits:
			// Temps and memory reads only: no state slot to check.
		case KLoadExt, KLoadBitExt:
			ea.reads = append(ea.reads, in.A)
		case KStoreExt, KStoreBitExt:
			ea.writes = append(ea.writes, in.Dst)
		case KBinStoreExt:
			ea.writes = append(ea.writes, in.C)
		case KMuxStoreExt:
			ea.writes = append(ea.writes, int32(uint32(in.Val)))
		default:
			return nil
		}
	}
	return ea
}

// classRuns splits p's schedule into class runs: each run is grown
// greedily over adjacent activations of its shared kernel and closed at
// the first activation that runs another kernel or conflicts with a
// member already in the run. The check reads the activations' code and
// Ext tables, so a schedule that happens to interleave dependent
// instances yields shorter runs, never wrong ones. Stretches of fewer
// than MinClassRun members are not runs.
func classRuns(p *Program) []ClassRun {
	access := make([]*extAccess, len(p.Kernels))
	for i, k := range p.Kernels {
		access[i] = kernelAccess(k)
	}
	// wrote[s] / read[s] hold the 1-based id of the last run whose
	// members wrote / read logical slot s, so no per-run clearing.
	wrote := make([]int32, p.NumSlots)
	read := make([]int32, p.NumSlots)
	var runs []ClassRun
	run, start := int32(0), 0
	flush := func(end int) {
		if end-start >= MinClassRun {
			runs = append(runs, ClassRun{Start: int32(start), Len: int32(end - start)})
		}
	}
	conflicts := func(act *Activation, ea *extAccess) bool {
		for _, x := range ea.reads {
			if wrote[act.Ext[x]] == run {
				return true
			}
		}
		for _, x := range ea.writes {
			if s := act.Ext[x]; wrote[s] == run || read[s] == run {
				return true
			}
		}
		return false
	}
	for i := range p.Activations {
		act := &p.Activations[i]
		ea := access[act.Kernel]
		if ea == nil {
			flush(i)
			start = i + 1
			continue
		}
		if i == start || act.Kernel != p.Activations[start].Kernel || conflicts(act, ea) {
			flush(i)
			start = i
			run++
		}
		for _, x := range ea.reads {
			read[act.Ext[x]] = run
		}
		for _, x := range ea.writes {
			wrote[act.Ext[x]] = run
		}
	}
	flush(len(p.Activations))
	return runs
}
