package sim

import "dedupsim/internal/codegen"

// buildClassRuns indexes the Program's class runs for the one-lane
// worklist: runEnd[i] is one past the last member of the run holding
// activation i, or 0 outside them.
// It also sizes the gear's scratch: member Ext/Mems rows and temps at
// stride n for the longest run. Without such runs (ESSENT, every 2-core
// design) runEnd stays nil, which costs stepL1 one test per step.
func (e *BatchEngine) buildClassRuns() {
	p := e.p
	maxLen, maxTemps := 0, len(e.temps)
	for _, r := range p.ClassRuns {
		if e.runEnd == nil {
			e.runEnd = make([]int32, len(p.Activations))
		}
		end := r.Start + r.Len
		for i := r.Start; i < end; i++ {
			e.runEnd[i] = end
		}
		maxLen = max(maxLen, int(r.Len))
		maxTemps = max(maxTemps, p.Kernels[p.Activations[r.Start].Kernel].NumTemps*int(r.Len))
	}
	e.classExt = make([][]int32, 0, maxLen)
	e.classMems = make([][]int32, 0, maxLen)
	if maxTemps > len(e.temps) {
		e.temps = make([]uint64, maxTemps)
	}
}

// runClass is the class gear's entry from the worklist, which has just
// reached (and cleared) activation i of the run ending before end. With
// at least codegen.MinClassRun members dirty from i on, it clears theirs, runs
// the kernel once across all of them and returns their count; otherwise
// it touches nothing and returns 0, and the caller runs i alone. Members
// before i stay as they are: a mark that landed there after the cursor
// passed waits for the next cycle, as it would one member at a time.
func (e *BatchEngine) runClass(i, end int) int {
	dirty := e.actDirty
	n := 1
	for j := i + 1; j < end; j++ {
		n += int(dirty[j>>6] >> uint(j&63) & 1)
	}
	if n < codegen.MinClassRun {
		return 0
	}
	acts := e.p.Activations
	exts, mems := append(e.classExt[:0], acts[i].Ext), append(e.classMems[:0], acts[i].Mems)
	for j := i + 1; j < end; j++ {
		if w, b := j>>6, uint64(1)<<uint(j&63); dirty[w]&b != 0 {
			dirty[w] &^= b
			exts, mems = append(exts, acts[j].Ext), append(mems, acts[j].Mems)
		}
	}
	e.execClass(e.p.Kernels[acts[i].Kernel], exts, mems)
	return n
}

// execClass interprets shared kernel k once across the members of a
// class run: each instruction is dispatched once and applied to every
// member, the instance standing where a BatchEngine lane would. Temps
// are dense at stride n = len(exts), so the multi-lane dense operator
// helpers serve unchanged; state goes through each member's own Ext and
// Mems rows. Members are pairwise independent (codegen.ClassRun), so
// this instruction-major order stores and marks exactly what running
// them member-major would. Stores change-detect and wake consumers per
// member, and with activity off store straight, as execKernel does.
func (e *BatchEngine) execClass(k *codegen.Kernel, exts, mems [][]int32) {
	p := e.p
	n := len(exts)
	t := e.temps
	st := e.state
	row := func(r int32) []uint64 { return t[int(r)*n : int(r)*n+n][:n] }
	for i := range k.Code {
		in := &k.Code[i]
		switch in.Op {
		case codegen.KConst:
			d := row(in.Dst)
			for j := range d {
				d[j] = in.Val
			}
		case codegen.KLoadExt:
			d := row(in.Dst)
			for j, x := range exts {
				d[j] = st[x[in.A]]
			}
		case codegen.KStoreExt:
			e.storeClass(exts, in.Dst, row(in.A), in.Mask)
		case codegen.KBin:
			evalBinDense(t, in, n)
		case codegen.KNot:
			d, a, mask := row(in.Dst), row(in.A), in.Mask
			for j := range d {
				d[j] = ^a[j] & mask
			}
		case codegen.KMux:
			d, s, a, b := row(in.Dst), row(in.A), row(in.B), row(in.C)
			for j := range d {
				if s[j] != 0 {
					d[j] = a[j]
				} else {
					d[j] = b[j]
				}
			}
		case codegen.KBits:
			d, a, sh, mask := row(in.Dst), row(in.A), in.Val, in.Mask
			for j := range d {
				d[j] = (a[j] >> sh) & mask
			}
		case codegen.KMemRead:
			d, a := row(in.Dst), row(in.A)
			for j, x := range mems {
				m := e.mems[x[in.B]]
				d[j] = m[a[j]%uint64(len(m))]
			}

		case codegen.KBinI:
			evalBinImmDense(t, in, n)
		case codegen.KNotAnd:
			d, a, b, mask := row(in.Dst), row(in.A), row(in.B), in.Mask
			for j := range d {
				d[j] = ^a[j] & b[j] & mask
			}
		case codegen.KMuxMux:
			d, s1, v1, s2 := row(in.Dst), row(in.A), row(in.B), row(in.C)
			tv, fv := row(int32(uint32(in.Val))), row(int32(in.Val>>32))
			for j := range d {
				if s1[j] != 0 {
					d[j] = v1[j]
				} else if s2[j] != 0 {
					d[j] = tv[j]
				} else {
					d[j] = fv[j]
				}
			}
		case codegen.KBinStoreExt:
			evalBinDense(t, in, n)
			e.storeClass(exts, in.C, row(in.Dst), in.Mask)
		case codegen.KMuxStoreExt:
			d, s1, v1, v0 := row(in.Dst), row(in.A), row(in.B), row(in.C)
			for j := range d {
				if s1[j] != 0 {
					d[j] = v1[j]
				} else {
					d[j] = v0[j]
				}
			}
			e.storeClass(exts, int32(uint32(in.Val)), d, in.Mask)

		case codegen.KBinBits:
			evalBinDense(t, in, n) // masked bin result lands in Dst
			d, sh, fm := row(in.Dst), uint(in.C), in.Val
			for j := range d {
				d[j] = (d[j] >> sh) & fm
			}

		case codegen.KLoadBitExt:
			d := row(in.Dst)
			for j, x := range exts {
				slot := x[in.A]
				d[j] = (st[p.SlotWord[slot]] >> uint(p.SlotBit[slot])) & 1
			}
		case codegen.KStoreBitExt:
			src := row(in.A)
			for j, x := range exts {
				slot := x[in.Dst]
				w, b := p.SlotWord[slot], uint(p.SlotBit[slot])
				v := src[j] & 1
				if !e.marking {
					st[w] = st[w]&^(1<<b) | v<<b
				} else if old := (st[w] >> b) & 1; old != v {
					st[w] ^= (old ^ v) << b
					e.markConsumers(slot, 1)
				}
			}
		default:
			panic("sim: class run kernel has an opcode the class gear does not implement")
		}
	}
}

// storeClass publishes src[j] & mask to member j's Ext[x] slot.
func (e *BatchEngine) storeClass(exts [][]int32, x int32, src []uint64, mask uint64) {
	st := e.state
	for j, ext := range exts {
		slot := ext[x]
		v := src[j] & mask
		if !e.marking {
			st[slot] = v
		} else if st[slot] != v {
			st[slot] = v
			e.markConsumers(slot, 1)
		}
	}
}
