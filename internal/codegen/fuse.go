package codegen

import "dedupsim/internal/circuit"

// Superinstruction fusion: a peephole pass over each kernel's linear
// instruction stream that collapses common chains into single fused
// opcodes, cutting the interpreters' per-instruction dispatch count —
// the dominant cost below the dedup algorithmics. The pass runs once per
// KERNEL, after the sharing decision, so every activation of a shared
// class executes the same fused body and class twins cannot diverge.
//
// Patterns (in application order):
//
//  1. Constant folding: a KBin whose right operand is a KConst becomes
//     KBinI with the immediate inline (commutative ops swap a left-hand
//     constant to the right first); KConsts with no remaining uses die.
//  2. Chain fusion at the consumer: single-use KNot into KBin/OpAnd
//     (KNotAnd), single-use inner KMux on a false arm (KMuxMux — the
//     priority-ladder rung), single-use KBin into a KBits field
//     extraction (KBinBits — keeps both masks, so it is sound for every
//     non-Cat operator).
//  3. Store sinking into the definition: a KStore/KStoreExt whose source
//     is a KBin or KMux moves into the defining instruction (KBinStore /
//     KMuxStore and their Ext forms). The temp is still written, so
//     other readers are unaffected, and the store moves EARLIER in the
//     kernel — safe because a kernel's read set (external slots) and
//     write set (its own slots) are disjoint and each slot is written at
//     most once per kernel.
//
// Soundness notes: temps are SSA (each written exactly once), so a
// single-use def can be deleted once its one consumer absorbs it. Mask
// combination in KNotAnd is (^a & m1) & b & m2 == (^a & b) & (m1 & m2).
// Store sinking requires the def mask to equal the store mask, except
// for comparisons whose 0/1 result survives any width>=1 mask.

// fuseCommutative reports binary ops where operand order is free.
func fuseCommutative(op circuit.Op) bool {
	switch op {
	case circuit.OpAnd, circuit.OpOr, circuit.OpXor, circuit.OpAdd,
		circuit.OpMul, circuit.OpEq, circuit.OpNeq:
		return true
	}
	return false
}

// fuseIsCmp reports comparison ops (unmasked 0/1 results).
func fuseIsCmp(op circuit.Op) bool {
	switch op {
	case circuit.OpEq, circuit.OpNeq, circuit.OpLt, circuit.OpGeq:
		return true
	}
	return false
}

// tempUses invokes f for every temp-register READ of in (definitions are
// not uses). This is the single source of truth for operand roles; every
// new opcode must be covered here and in instrDefsTemp.
func tempUses(in *Instr, f func(t int32)) {
	switch in.Op {
	case KConst, KLoad, KLoadExt, KLoadBit, KLoadBitExt:
	case KStore, KStoreExt, KStoreBit, KStoreBitExt:
		f(in.A)
	case KBin, KNotAnd, KBinStore, KBinStoreExt, KBinBits:
		f(in.A)
		f(in.B)
	case KBinI, KNot, KBits, KMemRead:
		f(in.A)
	case KMux, KMuxStore, KMuxStoreExt:
		f(in.A)
		f(in.B)
		f(in.C)
	case KMuxMux:
		f(in.A)
		f(in.B)
		f(in.C)
		f(int32(uint32(in.Val)))
		f(int32(in.Val >> 32))
	}
}

// instrDefsTemp reports whether in writes its Dst temp.
func instrDefsTemp(op OpCode) bool {
	switch op {
	case KStore, KStoreExt, KStoreBit, KStoreBitExt:
		return false
	}
	return true
}

// fuseKernel rewrites code applying the fusion patterns above and
// returns the new instruction stream plus per-pattern fusion counts.
// The input slice is not retained; instruction Masks must already be
// populated (fusion combines them).
func fuseKernel(code []Instr) (out []Instr, fused [NumFusionKinds]int) {
	if len(code) == 0 {
		return code, fused
	}
	nTemps := int32(0)
	for i := range code {
		if instrDefsTemp(code[i].Op) && code[i].Dst >= nTemps {
			nTemps = code[i].Dst + 1
		}
	}
	use := make([]int32, nTemps)
	def := make([]int32, nTemps)
	for i := range def {
		def[i] = -1
	}
	for i := range code {
		in := &code[i]
		tempUses(in, func(t int32) { use[t]++ })
		if instrDefsTemp(in.Op) {
			def[in.Dst] = int32(i)
		}
	}
	dead := make([]bool, len(code))

	// defOf resolves a temp to its live defining instruction index.
	defOf := func(t int32) int32 {
		if t < 0 || t >= nTemps {
			return -1
		}
		d := def[t]
		if d < 0 || dead[d] {
			return -1
		}
		return d
	}

	// Pass 1: constant folding into KBinI.
	for i := range code {
		in := &code[i]
		if in.Op != KBin || in.BinOp == circuit.OpCat {
			continue
		}
		if d := defOf(in.A); d >= 0 && code[d].Op == KConst && fuseCommutative(in.BinOp) {
			if db := defOf(in.B); db < 0 || code[db].Op != KConst {
				in.A, in.B = in.B, in.A
			}
		}
		if d := defOf(in.B); d >= 0 && code[d].Op == KConst {
			use[in.B]--
			in.Op = KBinI
			in.Val = code[d].Val
			in.B = 0
			fused[FuseBinImm]++
		}
	}
	for i := range code {
		if code[i].Op == KConst && use[code[i].Dst] == 0 {
			dead[i] = true
		}
	}

	// Pass 2: chain fusion at the consumer.
	for i := range code {
		in := &code[i]
		switch in.Op {
		case KBin:
			if in.BinOp != circuit.OpAnd {
				continue
			}
			if d := defOf(in.A); d >= 0 && code[d].Op == KNot && use[in.A] == 1 {
				n := &code[d]
				use[in.A]--
				in.Op = KNotAnd
				in.Mask &= n.Mask
				in.A = n.A
				dead[d] = true
				fused[FuseNotAnd]++
			} else if d := defOf(in.B); d >= 0 && code[d].Op == KNot && use[in.B] == 1 {
				n := &code[d]
				use[in.B]--
				in.Op = KNotAnd
				in.Mask &= n.Mask
				in.B = in.A
				in.A = n.A
				dead[d] = true
				fused[FuseNotAnd]++
			}
		case KBits:
			if d := defOf(in.A); d >= 0 && code[d].Op == KBin && code[d].BinOp != circuit.OpCat && use[in.A] == 1 {
				src := &code[d]
				use[in.A]--
				in.Op = KBinBits
				in.BinOp = src.BinOp
				in.C = int32(in.Val) // shift count (< 64 by construction)
				in.Val = in.Mask     // extracted-field mask
				in.Mask = src.Mask   // bin-result mask
				in.A, in.B = src.A, src.B
				dead[d] = true
				fused[FuseBinBits]++
			}
		case KMux:
			if d := defOf(in.C); d >= 0 && code[d].Op == KMux && use[in.C] == 1 {
				m2 := &code[d]
				use[in.C]--
				in.Op = KMuxMux
				in.C = m2.A
				in.Val = uint64(uint32(m2.B)) | uint64(uint32(m2.C))<<32
				dead[d] = true
				fused[FuseMuxMux]++
			}
		}
	}

	// Pass 3: store sinking into the defining instruction.
	for i := range code {
		in := &code[i]
		if dead[i] || (in.Op != KStore && in.Op != KStoreExt) {
			continue
		}
		d := defOf(in.A)
		if d < 0 {
			continue
		}
		src := &code[d]
		switch src.Op {
		case KBin:
			if src.Mask != in.Mask && !fuseIsCmp(src.BinOp) {
				continue
			}
			if in.Op == KStore {
				src.Op = KBinStore
			} else {
				src.Op = KBinStoreExt
			}
			src.C = in.Dst
			use[in.A]--
			dead[i] = true
			fused[FuseBinStore]++
		case KMux:
			if in.Op == KStore {
				src.Op = KMuxStore
			} else {
				src.Op = KMuxStoreExt
			}
			src.Val = uint64(uint32(in.Dst))
			src.Mask = in.Mask
			use[in.A]--
			dead[i] = true
			fused[FuseMuxStore]++
		}
	}

	if fused == ([NumFusionKinds]int{}) {
		return code, fused
	}
	out = make([]Instr, 0, len(code))
	for i := range code {
		if !dead[i] {
			out = append(out, code[i])
		}
	}
	return out, fused
}
