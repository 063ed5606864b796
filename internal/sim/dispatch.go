package sim

import (
	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
)

// execKernel is the unified scalar-layout interpreter core: one dense
// switch over the full (base + fused + packed-bit) opcode set, shared by
// the one-lane BatchEngine (which the scalar Engine is; its state layout
// at one lane is exactly the scalar layout) and the ParallelEngine's
// workers. The switch is dense over a uint8 opcode enumeration, which the
// Go compiler lowers to a jump table — the "threaded dispatch"
// replacement for a sparse per-engine switch, and having ONE copy keeps
// that table and its branch-predictor state hot across every engine in
// the process.
//
// mark is the engine's consumer-waking hook, called with a LOGICAL slot
// after a store changed its value. A nil mark selects straight-line
// stores with no change detection at all — sound exactly when the
// engine's dirty flags are never read (activity skipping off), and the
// reason the unfused Verilator-style variant also gets faster: stores
// stop paying a compare+branch each. Engines must pick nil consistently
// (all engines suppress in-kernel marks when activity is off) so
// snapshot Dirty flags stay bit-exact across lane counts and engines.
//
// onMem observes KMemRead traffic (the host performance model); nil for
// every hot path, costing one predictable branch per memory read.
func execKernel(p *codegen.Program, k *codegen.Kernel, act *codegen.Activation,
	st, t []uint64, mems [][]uint64, mark func(int32), onMem func(int32, uint64)) {
	for i := range k.Code {
		in := &k.Code[i]
		switch in.Op {
		case codegen.KConst:
			t[in.Dst] = in.Val
		case codegen.KLoad:
			t[in.Dst] = st[in.A]
		case codegen.KLoadExt:
			t[in.Dst] = st[act.Ext[in.A]]
		case codegen.KStore:
			v := t[in.A] & in.Mask
			if mark == nil {
				st[in.Dst] = v
			} else if st[in.Dst] != v {
				st[in.Dst] = v
				mark(in.Dst)
			}
		case codegen.KStoreExt:
			slot := act.Ext[in.Dst]
			v := t[in.A] & in.Mask
			if mark == nil {
				st[slot] = v
			} else if st[slot] != v {
				st[slot] = v
				mark(slot)
			}
		case codegen.KBin:
			// The forms with >= 1 % of executed instructions on some bench
			// design are evaluated inline (DESIGN.md "The interpreter hot
			// path"): EvalBinMask is beyond the inliner's budget, and the
			// call + second switch costs more than the arithmetic.
			a, b := t[in.A], t[in.B]
			var v uint64
			switch in.BinOp {
			case circuit.OpXor:
				v = (a ^ b) & in.Mask
			case circuit.OpAnd:
				v = a & b & in.Mask
			case circuit.OpAdd:
				v = (a + b) & in.Mask
			case circuit.OpOr:
				v = (a | b) & in.Mask
			default:
				v = EvalBinMask(in.BinOp, in.Mask, a, b, uint8(in.Val))
			}
			t[in.Dst] = v
		case codegen.KNot:
			t[in.Dst] = ^t[in.A] & in.Mask
		case codegen.KMux:
			if t[in.A] != 0 {
				t[in.Dst] = t[in.B]
			} else {
				t[in.Dst] = t[in.C]
			}
		case codegen.KBits:
			t[in.Dst] = (t[in.A] >> in.Val) & in.Mask
		case codegen.KMemRead:
			mi := in.B
			if k.Shared {
				mi = act.Mems[in.B]
			}
			m := mems[mi]
			addr := t[in.A] % uint64(len(m))
			if onMem != nil {
				onMem(mi, addr)
			}
			t[in.Dst] = m[addr]

		case codegen.KBinI:
			a, c := t[in.A], in.Val
			var v uint64
			switch in.BinOp {
			case circuit.OpShl:
				if c < 64 {
					v = (a << c) & in.Mask
				}
			case circuit.OpAdd:
				v = (a + c) & in.Mask
			case circuit.OpEq:
				if a == c {
					v = 1
				}
			case circuit.OpShr:
				if c < 64 {
					v = (a >> c) & in.Mask
				}
			case circuit.OpOr:
				v = (a | c) & in.Mask
			default:
				v = EvalBinMask(in.BinOp, in.Mask, a, c, 0)
			}
			t[in.Dst] = v
		case codegen.KNotAnd:
			t[in.Dst] = ^t[in.A] & t[in.B] & in.Mask
		case codegen.KMuxMux:
			if t[in.A] != 0 {
				t[in.Dst] = t[in.B]
			} else if t[in.C] != 0 {
				t[in.Dst] = t[int32(uint32(in.Val))]
			} else {
				t[in.Dst] = t[int32(in.Val>>32)]
			}
		case codegen.KBinStore:
			v := EvalBinMask(in.BinOp, in.Mask, t[in.A], t[in.B], uint8(in.Val))
			t[in.Dst] = v
			if mark == nil {
				st[in.C] = v
			} else if st[in.C] != v {
				st[in.C] = v
				mark(in.C)
			}
		case codegen.KBinStoreExt:
			v := EvalBinMask(in.BinOp, in.Mask, t[in.A], t[in.B], uint8(in.Val))
			t[in.Dst] = v
			slot := act.Ext[in.C]
			if mark == nil {
				st[slot] = v
			} else if st[slot] != v {
				st[slot] = v
				mark(slot)
			}
		case codegen.KMuxStore:
			v := t[in.C]
			if t[in.A] != 0 {
				v = t[in.B]
			}
			t[in.Dst] = v
			v &= in.Mask
			slot := int32(uint32(in.Val))
			if mark == nil {
				st[slot] = v
			} else if st[slot] != v {
				st[slot] = v
				mark(slot)
			}
		case codegen.KMuxStoreExt:
			v := t[in.C]
			if t[in.A] != 0 {
				v = t[in.B]
			}
			t[in.Dst] = v
			v &= in.Mask
			slot := act.Ext[int32(uint32(in.Val))]
			if mark == nil {
				st[slot] = v
			} else if st[slot] != v {
				st[slot] = v
				mark(slot)
			}

		case codegen.KBinBits:
			v := EvalBinMask(in.BinOp, in.Mask, t[in.A], t[in.B], 0)
			t[in.Dst] = (v >> uint(in.C)) & in.Val

		case codegen.KLoadBit:
			t[in.Dst] = (st[in.A] >> uint(in.B)) & 1
		case codegen.KLoadBitExt:
			slot := act.Ext[in.A]
			t[in.Dst] = (st[p.SlotWord[slot]] >> uint(p.SlotBit[slot])) & 1
		case codegen.KStoreBit:
			v := t[in.A] & 1
			if mark == nil {
				st[in.B] = st[in.B]&^(1<<uint(in.C)) | v<<uint(in.C)
			} else if old := (st[in.B] >> uint(in.C)) & 1; old != v {
				st[in.B] ^= (old ^ v) << uint(in.C)
				mark(in.Dst)
			}
		case codegen.KStoreBitExt:
			slot := act.Ext[in.Dst]
			w, b := p.SlotWord[slot], uint(p.SlotBit[slot])
			v := t[in.A] & 1
			if mark == nil {
				st[w] = st[w]&^(1<<b) | v<<b
			} else if old := (st[w] >> b) & 1; old != v {
				st[w] ^= (old ^ v) << b
				mark(slot)
			}
		}
	}
}
