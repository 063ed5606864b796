// Package codegen lowers an acyclic partitioning of a circuit into an
// executable Program: one bytecode kernel per partition, plus the state
// layout and the per-cycle activation list.
//
// The package is where the paper's central mechanism lives:
//
//   - Partitions with unique code get a *direct* kernel whose
//     instructions reference absolute state slots — the compiler can
//     "hardcode" every address, like ESSENT's generated C++.
//   - Partitions in a shared class get ONE kernel for the whole class.
//     Its instructions reference state indirectly through a
//     per-activation external-slot table (the per-instance struct of
//     paper Section 5.1, realized as a table because our substrate is an
//     interpreter). Indirection costs extra instructions — the "dedup
//     tax" of Section 3.3 — but the class shares a single code body, so
//     the simulator's code footprint shrinks with the replica count.
//
// A Verilator-style *fine-grained* statement deduplication is also
// provided: only trivially small kernels are shared, modeling the limited
// dedup the paper observes in Verilator (Section 2.4).
package codegen

import "dedupsim/internal/circuit"

// OpCode enumerates kernel bytecode operations.
type OpCode uint8

const (
	// KConst loads the immediate Val into temp Dst.
	KConst OpCode = iota
	// KLoad loads state slot A (absolute) into temp Dst.
	KLoad
	// KLoadExt loads the state slot found in the activation's Ext[A]
	// table into temp Dst (shared kernels only; the extra table lookup is
	// the dedup tax).
	KLoadExt
	// KStore writes temp A to state slot Dst (absolute).
	KStore
	// KStoreExt writes temp A to the slot in the activation's Ext[Dst].
	KStoreExt
	// KBin computes Dst <- BinOp(A, B) masked to Width. For OpCat, Val
	// holds the width of operand B.
	KBin
	// KNot computes Dst <- ^A masked to Width.
	KNot
	// KMux computes Dst <- A != 0 ? B : C.
	KMux
	// KBits computes Dst <- (A >> Val) masked to Width.
	KBits
	// KMemRead reads memory: Dst <- mem[A % depth]. For direct kernels B
	// is the global memory index; for shared kernels B indexes the
	// activation's Mems table.
	KMemRead

	// --- Superinstructions. The fusion pass (fuse.go) rewrites common
	// chains in a kernel's linear code into the fused forms below, so the
	// interpreters dispatch once where they used to dispatch two or three
	// times. Masks are combined at fusion time; the engines never rebuild
	// them.

	// KBinI computes Dst <- BinOp(A, Val) masked to Width: a KBin whose
	// right operand was a KConst, folded at fusion time (commutative ops
	// are swapped so the constant lands on the right; OpCat is never
	// folded because Val already carries its operand width).
	KBinI
	// KNotAnd computes Dst <- (^A & B) & Mask, fusing a single-use KNot
	// into its consuming KBin/OpAnd. Mask is the AND of both original
	// masks (sound by associativity of &).
	KNotAnd
	// KMuxMux computes Dst <- A != 0 ? B : (C != 0 ? tv : fv), fusing a
	// single-use inner KMux on the false arm (a priority-mux ladder
	// rung). Val packs the inner arms as uint32 pair: tv = Val&0xffffffff,
	// fv = Val>>32.
	KMuxMux
	// KBinStore is KBin immediately followed by a store of its result:
	// Dst (the temp) is still written for other uses, and state slot C
	// (absolute) receives the same value. Fused only when the store mask
	// equals the bin mask (or the op is a comparison, whose 0/1 result
	// any mask keeps), so the stored value is exactly t[Dst].
	KBinStore
	// KBinStoreExt is KBinStore for shared kernels: C indexes the
	// activation's Ext table.
	KBinStoreExt
	// KMuxStore is KMux immediately followed by a store of its result to
	// state slot Val (absolute); Mask is the store's mask.
	KMuxStore
	// KMuxStoreExt is KMuxStore for shared kernels: Val indexes the
	// activation's Ext table.
	KMuxStoreExt

	// --- 1-bit packed state access. Lowering packs width-1 cross-
	// partition signals into shared state words (Program.SlotWord /
	// SlotBit); these opcodes read and write single bits of those words.

	// KLoadBit loads one packed bit: Dst <- (state[A] >> B) & 1, with A
	// the physical word and B the bit position (direct kernels only).
	KLoadBit
	// KLoadBitExt loads a packed bit through the activation's Ext table:
	// the logical slot is Ext[A]; the word and bit come from
	// Program.SlotWord/SlotBit.
	KLoadBitExt
	// KStoreBit stores temp A's low bit into bit C of state word B. Dst
	// holds the LOGICAL slot (for consumer marking), which is distinct
	// from the word.
	KStoreBit
	// KStoreBitExt is KStoreBit for shared kernels: Ext[Dst] is the
	// logical slot, resolved to word/bit via Program.SlotWord/SlotBit.
	KStoreBitExt

	// KBinBits is KBin immediately followed by a single-use field
	// extraction of its result: Dst <- (BinOp(A, B) & Mask) >> C, masked
	// to the extracted field by Val. Mask is the original bin mask, C the
	// shift count, Val the field mask (both masks are kept, so the fusion
	// is sound for every operator; OpCat is excluded because it needs Val
	// for its operand width).
	KBinBits
)

// Instr is one bytecode instruction. Dst/A/B/C are temp indices except
// where an opcode documents otherwise.
type Instr struct {
	Op    OpCode
	Dst   int32
	A     int32
	B     int32
	C     int32
	BinOp circuit.Op // for KBin
	Width uint8
	Val   uint64
	// Mask is circuit.Mask(Width), precomputed by Compile so the engines
	// never rebuild it per dispatch.
	Mask uint64
}

// Kernel is the compiled body of one partition (direct) or one shared
// class.
type Kernel struct {
	// ID is the kernel's index in Program.Kernels.
	ID int32
	// Code is the instruction sequence.
	Code []Instr
	// NumTemps is the temp-register count the engine must provide.
	NumTemps int
	// Shared marks class kernels (indirect addressing).
	Shared bool
	// NumExt is the length of the activation Ext table this kernel needs.
	NumExt int
	// NumMems is the length of the activation Mems table.
	NumMems int
	// CodeBytes estimates the native code footprint of this kernel, used
	// by the host performance model. Shared kernels are slightly larger
	// per instruction (indirection) but exist once per class.
	CodeBytes int
	// DynInstrs estimates the native instructions executed per
	// activation.
	DynInstrs int
	// BranchSites counts conditional-branch sites (muxes and the loop/
	// call overhead), used by the branch-predictor model.
	BranchSites int
	// InstrsBeforeFusion is len(Code) before the superinstruction fusion
	// pass ran (equal to len(Code) when fusion is disabled or found
	// nothing); the fusion-stats report weights it by activation count.
	InstrsBeforeFusion int
}

// Activation is one scheduled kernel invocation: partition p evaluated
// once per simulated cycle (unless activity skipping elides it).
type Activation struct {
	// Kernel indexes Program.Kernels.
	Kernel int32
	// Part is the partition this activation evaluates.
	Part int32
	// Ext is the external slot table (nil for direct kernels).
	Ext []int32
	// Mems is the memory table (nil for direct kernels or kernels without
	// memory ports).
	Mems []int32
	// TouchedSlots lists the distinct state slots this activation reads
	// or writes, for the host cache model's data-side trace.
	TouchedSlots []int32
}

// RegSpec describes one register for the commit phase.
type RegSpec struct {
	Cur   int32 // current-state slot
	Next  int32 // next-state slot, written during evaluation
	En    int32 // enable slot, or -1 (OpReg commits unconditionally)
	Width uint8
	Reset uint64
}

// WritePortSpec describes one memory write port: the evaluation phase
// stages addr/data/enable into slots; the commit phase applies them.
type WritePortSpec struct {
	Mem  int32
	Addr int32
	Data int32
	En   int32
	// Mask is circuit.Mask of the memory's width, precomputed by Compile.
	Mask uint64
}

// PortSpec maps a named top-level input or output to its slot.
type PortSpec struct {
	Name  string
	Slot  int32
	Width uint8
}

// Program is a fully lowered design ready for the engine.
//
// Sharing invariant: a Program is immutable after Compile returns, and
// every engine treats it as strictly read-only — all mutable run state
// (the state vector, memories, temps, and dirty flags) lives in the
// engine, never here. Any number of sim.Engine / sim.ParallelEngine
// instances may therefore execute one Program concurrently without
// synchronization. The simulation farm's compile cache depends on this:
// it hands the same *Program to every job whose circuit hashes alike.
// Code that extends Program or the engines must preserve the split —
// per-run data belongs on the engine.
//
// Compile is deterministic: class kernels come first in ascending class
// ID, then fine-grained groups by first partition, then direct kernels
// in partition order.
type Program struct {
	Kernels []*Kernel
	// Activations holds one activation per partition, in schedule order.
	Activations []Activation
	// ClassRuns lists, in schedule order, the stretches of Activations
	// the one-lane engine may interpret as one kernel pass across class
	// instances (see ClassRun). Nil when no shared kernel has adjacent
	// independent activations, as under ESSENT.
	ClassRuns []ClassRun
	// NumSlots sizes the state vector.
	NumSlots int
	// NumParts is the partition count (for activity flags).
	NumParts int
	// Mems lists memory shapes (index = global memory ID).
	Mems []circuit.Memory
	// Regs drive the commit phase.
	Regs []RegSpec
	// WritePorts drive the memory-commit phase.
	WritePorts []WritePortSpec
	// Inputs and Outputs expose the testbench interface.
	Inputs  []PortSpec
	Outputs []PortSpec
	// SlotOfNode maps circuit nodes to slots (-1 when the value lives
	// only in kernel temps). Exposed for probes and tests.
	SlotOfNode []int32
	// SlotConsOff/SlotConsEdge are the activity-tracking fan-out map in
	// CSR form: the partitions reading slot s are SlotConsEdge[
	// SlotConsOff[s]:SlotConsOff[s+1]] (SlotConsumers). One flat
	// allocation, no per-slot pointer chase — the engines' markConsumers
	// hot path walks these directly.
	SlotConsOff  []int32
	SlotConsEdge []int32
	// MemConsOff/MemConsEdge list, per memory, the partitions that read
	// it, in the same CSR form (MemConsumers).
	MemConsOff  []int32
	MemConsEdge []int32
	// UniqueCodeBytes sums CodeBytes over kernels (each kernel counted
	// once): the simulator's code footprint.
	UniqueCodeBytes int
	// TableBytes estimates the activation-table data footprint
	// (per-instance structs): the data-side dedup overhead.
	TableBytes int

	// NumWords sizes the engines' state vector. Slots below
	// NumWords-PackedWords map to words identically (slot == word);
	// packed 1-bit slots share appended words per SlotWord/SlotBit.
	// Without packing NumWords == NumSlots.
	NumWords int
	// SlotWord maps a logical slot to its physical state word; SlotBit
	// gives the bit within that word, or -1 for full-word (unpacked)
	// slots. Both have NumSlots entries, or are nil when no slot is
	// packed (identity: slot == word).
	SlotWord []int32
	SlotBit  []int8
	// PackedSignals counts 1-bit signals packed into shared words;
	// PackedWords counts the words they share.
	PackedSignals int
	PackedWords   int

	// Fusion reports what the superinstruction fusion pass did.
	Fusion FusionStats
}

// WordOf resolves a logical slot to its physical state word and bit
// (bit -1 = the slot owns the whole word). Cold-path helper for probes,
// snapshots, and tests; the interpreters use the packed opcodes directly.
func (p *Program) WordOf(s int32) (word int32, bit int8) {
	if p.SlotWord == nil {
		return s, -1
	}
	return p.SlotWord[s], p.SlotBit[s]
}

// SlotConsumers returns the partitions that read slot s: a view into
// the CSR fan-out map, not a copy.
func (p *Program) SlotConsumers(s int32) []int32 {
	return p.SlotConsEdge[p.SlotConsOff[s]:p.SlotConsOff[s+1]]
}

// MemConsumers returns the partitions that read memory m.
func (p *Program) MemConsumers(m int32) []int32 {
	return p.MemConsEdge[p.MemConsOff[m]:p.MemConsOff[m+1]]
}

// FusionStats summarizes the superinstruction fusion pass over a
// Program. "Act"-prefixed counts weight each kernel by its activation
// count — shared kernels count once per activation — so the ratio
// reflects per-cycle interpreter dispatches, not static code size.
type FusionStats struct {
	// InstrsBefore/InstrsAfter are static instruction counts summed over
	// kernels (each kernel once).
	InstrsBefore int `json:"instrs_before"`
	InstrsAfter  int `json:"instrs_after"`
	// ActInstrsBefore/ActInstrsAfter are activation-weighted counts: the
	// interpreter dispatches a full-activity cycle would execute.
	ActInstrsBefore int64 `json:"act_instrs_before"`
	ActInstrsAfter  int64 `json:"act_instrs_after"`
	// FusedByKind counts static fusions per pattern (bin_imm, not_and,
	// mux_mux, bin_bits, bin_store, mux_store).
	FusedByKind map[string]int `json:"fused_by_kind,omitempty"`
}

// Frac is the activation-weighted fraction of interpreter dispatches
// fusion eliminated (0 when fusion did nothing or was disabled).
func (f FusionStats) Frac() float64 {
	if f.ActInstrsBefore == 0 {
		return 0
	}
	return 1 - float64(f.ActInstrsAfter)/float64(f.ActInstrsBefore)
}
