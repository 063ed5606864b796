package codegen

import (
	"hash/fnv"

	"dedupsim/internal/circuit"
	"dedupsim/internal/dedup"
	"dedupsim/internal/graph"
	"dedupsim/internal/sched"
)

// Options selects the code-generation strategy.
type Options struct {
	// FineGrainDedup enables Verilator-style statement deduplication:
	// only kernels of at most fineGrainMaxInstrs instructions are shared
	// (by body hash). It is independent of coarse-grained class sharing.
	FineGrainDedup bool
	// DisableFusion turns off the superinstruction fusion pass (kernels
	// keep their one-op-per-node form). Fusion is on by default.
	DisableFusion bool
	// DisablePacking turns off 1-bit signal packing (every slot gets its
	// own state word). Packing is on by default.
	DisablePacking bool
}

// fineGrainMaxInstrs bounds the kernels FineGrainDedup shares.
const fineGrainMaxInstrs = 6

// Compile lowers the circuit under the given (possibly deduplicated)
// partitioning and schedule into an executable Program.
func Compile(c *circuit.Circuit, dr *dedup.Result, s *sched.Schedule, opt Options) (*Program, error) {
	cc := newCompiler(c, dr, opt)

	p := &Program{
		NumSlots:      cc.numSlots,
		NumParts:      dr.Part.NumParts,
		Mems:          c.Mems,
		Regs:          cc.regs,
		WritePorts:    cc.writePorts,
		Inputs:        cc.inputs,
		Outputs:       cc.outputs,
		SlotOfNode:    cc.slotOf,
		NumWords:      cc.numWords,
		SlotWord:      cc.slotWord,
		SlotBit:       cc.slotBit,
		PackedSignals: cc.packedSignals,
		PackedWords:   cc.packedWords,
	}

	// Lower every partition in external (position-independent) form.
	numParts := dr.Part.NumParts
	units, err := cc.lowerUnits()
	if err != nil {
		return nil, err
	}

	// Decide sharing: coarse classes first, then optional fine-grained.
	kernelOf := make([]int32, numParts)
	for i := range kernelOf {
		kernelOf[i] = -1
	}
	addKernel := func(code []Instr, numTemps int, shared bool, numExt, numMems int) *Kernel {
		// Precompute each instruction's width mask once, at lowering time,
		// so the interpreters never call circuit.Mask per dispatch.
		for i := range code {
			code[i].Mask = circuit.Mask(code[i].Width)
		}
		before := len(code)
		if !opt.DisableFusion {
			var kinds map[string]int
			code, kinds = fuseKernel(code)
			for kind, n := range kinds {
				if p.Fusion.FusedByKind == nil {
					p.Fusion.FusedByKind = map[string]int{}
				}
				p.Fusion.FusedByKind[kind] += n
			}
		}
		k := &Kernel{
			ID:                 int32(len(p.Kernels)),
			Code:               code,
			NumTemps:           numTemps,
			Shared:             shared,
			NumExt:             numExt,
			NumMems:            numMems,
			InstrsBeforeFusion: before,
		}
		costKernel(k)
		p.Kernels = append(p.Kernels, k)
		p.Fusion.InstrsBefore += before
		p.Fusion.InstrsAfter += len(code)
		return k
	}

	// Coarse-grained class kernels, numbered in ascending class ID.
	for _, parts := range cc.classes {
		tmpl := units[parts[0]]
		k := addKernel(tmpl.code, tmpl.numTemps, true, len(tmpl.ext), len(tmpl.mems))
		for _, pid := range parts {
			kernelOf[pid] = k.ID
		}
	}

	// Fine-grained sharing for small unshared kernels (Verilator mode).
	if opt.FineGrainDedup {
		// Groups are numbered by their first partition.
		byHash := map[uint64][]int32{}
		var hashes []uint64
		for pid := 0; pid < numParts; pid++ {
			if kernelOf[pid] >= 0 {
				continue
			}
			u := units[pid]
			if len(u.code) > fineGrainMaxInstrs {
				continue
			}
			h := hashCode(u.code)
			if _, seen := byHash[h]; !seen {
				hashes = append(hashes, h)
			}
			byHash[h] = append(byHash[h], int32(pid))
		}
		for _, h := range hashes {
			parts := byHash[h]
			if len(parts) < 2 {
				continue
			}
			// Confirm real equality (hash collision guard) against the
			// first; non-matching partitions stay direct.
			tmpl := units[parts[0]]
			group := parts[:1]
			for _, pid := range parts[1:] {
				if sameCode(tmpl.code, units[pid].code) {
					group = append(group, pid)
				}
			}
			if len(group) < 2 {
				continue
			}
			k := addKernel(tmpl.code, tmpl.numTemps, true, len(tmpl.ext), len(tmpl.mems))
			for _, pid := range group {
				kernelOf[pid] = k.ID
			}
		}
	}

	// Everything else inlines to a direct kernel.
	for pid := 0; pid < numParts; pid++ {
		if kernelOf[pid] >= 0 {
			continue
		}
		u := units[pid]
		k := addKernel(cc.inlineCode(u), u.numTemps, false, 0, 0)
		kernelOf[pid] = k.ID
	}

	// Activations in schedule order.
	p.Activations = make([]Activation, 0, numParts)
	for _, pid := range s.Order {
		u := units[pid]
		k := p.Kernels[kernelOf[pid]]
		act := Activation{Kernel: k.ID, Part: pid, TouchedSlots: u.touchedSlots(cc)}
		if k.Shared {
			act.Ext = append([]int32(nil), u.extSlots...)
			if len(u.mems) > 0 {
				act.Mems = append([]int32(nil), u.mems...)
			}
			p.TableBytes += 4*len(act.Ext) + 4*len(act.Mems) + 16
		}
		p.Activations = append(p.Activations, act)
	}
	p.ClassRuns = classRuns(p)

	// Activation-weighted fusion stats: the dispatch count a full-activity
	// cycle would execute, before vs after fusion. This is the number the
	// interpreters feel, so Frac() reports the realized dispatch saving
	// rather than the static (per unique kernel) one.
	for i := range p.Activations {
		k := p.Kernels[p.Activations[i].Kernel]
		p.Fusion.ActInstrsBefore += int64(k.InstrsBeforeFusion)
		p.Fusion.ActInstrsAfter += int64(len(k.Code))
	}

	// Activity fan-out maps: who reads which slot / memory. Built as
	// per-slot lists, then flattened into CSR so the engines' hot
	// markConsumers loop walks one flat edge array.
	slotCons := make([][]int32, cc.numSlots)
	memCons := make([][]int32, len(c.Mems))
	for pid := 0; pid < numParts; pid++ {
		u := units[pid]
		for _, ref := range u.reads {
			slot := cc.resolveRef(ref)
			slotCons[slot] = appendUnique(slotCons[slot], int32(pid))
		}
		for _, mem := range u.readMems {
			memCons[mem] = appendUnique(memCons[mem], int32(pid))
		}
	}
	p.SlotConsOff, p.SlotConsEdge = flattenCSR(slotCons)
	p.MemConsOff, p.MemConsEdge = flattenCSR(memCons)

	// Per-write-port commit masks, precomputed like instruction masks.
	for i := range p.WritePorts {
		p.WritePorts[i].Mask = circuit.Mask(c.Mems[p.WritePorts[i].Mem].Width)
	}

	for _, k := range p.Kernels {
		p.UniqueCodeBytes += k.CodeBytes
	}
	return p, nil
}

// newCompiler assigns the state slots every partition is lowered against.
func newCompiler(c *circuit.Circuit, dr *dedup.Result, opt Options) *compiler {
	cc := &compiler{c: c, dr: dr, classes: classParts(dr), packing: !opt.DisablePacking}
	cc.assignSlots()
	return cc
}

// flattenCSR packs per-index adjacency lists into offsets + one flat edge
// array: lists[i] becomes edges[off[i]:off[i+1]].
func flattenCSR(lists [][]int32) (off, edges []int32) {
	off = make([]int32, len(lists)+1)
	for i, l := range lists {
		off[i+1] = off[i] + int32(len(l))
	}
	edges = make([]int32, 0, off[len(lists)])
	for _, l := range lists {
		edges = append(edges, l...)
	}
	return off, edges
}

// appendUnique appends v unless it is already present. Callers append
// in ascending v order, so a repeat can only be the last entry.
func appendUnique(s []int32, v int32) []int32 {
	if n := len(s); n > 0 && s[n-1] == v {
		return s
	}
	return append(s, v)
}

// refKind distinguishes the slot roles a node can expose.
type refKind uint8

const (
	refValue refKind = iota // comb value / register current state
	refRegNext
	refRegEn
	refWPAddr
	refWPData
	refWPEn
)

// slotRef names a slot abstractly; resolution differs per instance, which
// is what makes class kernels position-independent.
type slotRef struct {
	node graph.NodeID
	kind refKind
}

// unit is one compiled partition before the sharing decision.
type unit struct {
	code     []Instr
	numTemps int
	ext      []slotRef // ext table descriptors, indexed by KLoadExt/KStoreExt operands
	extSlots []int32   // ext descriptors resolved for THIS partition
	mems     []int32   // global memory ids, indexed by KMemRead B in ext form
	reads    []slotRef // slots this partition reads (activity fan-in)
	writes   []slotRef // slots this partition writes
	readMems []int32   // memories this partition reads
}

// touchedSlots returns the distinct resolved slots the partition accesses.
func (u *unit) touchedSlots(cc *compiler) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, refs := range [][]slotRef{u.reads, u.writes} {
		for _, r := range refs {
			s := cc.resolveRef(r)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// inlineCode rewrites a unit's external-form code into direct form:
// KLoadExt/KStoreExt become KLoad/KStore on absolute slots, packed-bit
// accesses get their word/bit addresses baked in, and KMemRead's memory
// operand becomes the global memory id. The unit's ext table is consulted
// via the compiler that produced it.
func (cc *compiler) inlineCode(u *unit) []Instr {
	code := make([]Instr, len(u.code))
	copy(code, u.code)
	for i := range code {
		switch code[i].Op {
		case KLoadExt:
			code[i].Op = KLoad
			code[i].A = u.extSlots[code[i].A]
		case KStoreExt:
			code[i].Op = KStore
			code[i].Dst = u.extSlots[code[i].Dst]
		case KLoadBitExt:
			slot := u.extSlots[code[i].A]
			code[i].Op = KLoadBit
			code[i].A = cc.slotWord[slot]
			code[i].B = int32(cc.slotBit[slot])
		case KStoreBitExt:
			slot := u.extSlots[code[i].Dst]
			code[i].Op = KStoreBit
			code[i].Dst = slot // logical slot, kept for consumer marking
			code[i].B = cc.slotWord[slot]
			code[i].C = int32(cc.slotBit[slot])
		case KMemRead:
			code[i].B = u.mems[code[i].B]
		}
	}
	return code
}

func sameCode(a, b []Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hashCode(code []Instr) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, in := range code {
		put(uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Width)<<40 | uint64(in.BinOp)<<48)
		put(uint64(uint32(in.A)) | uint64(uint32(in.B))<<32)
		put(uint64(uint32(in.C)))
		put(in.Val)
	}
	return h.Sum64()
}

// costKernel fills the host-cost model fields: estimated native code
// bytes, dynamic instructions per activation, and branch sites. The
// constants approximate x86-64 code emitted by an optimizing compiler;
// indirect (Ext) accesses pay one extra load and larger encodings — the
// dedup tax.
func costKernel(k *Kernel) {
	bytes, dyn, branches := 16, 4, 1 // prologue/epilogue + dispatch
	for _, in := range k.Code {
		switch in.Op {
		case KConst:
			bytes += 5
			dyn++
		case KLoad, KStore:
			bytes += 5
			dyn++
		case KLoadExt, KStoreExt:
			bytes += 9
			dyn += 2
		case KBin:
			bytes += 4
			dyn++
		case KNot:
			bytes += 3
			dyn++
		case KBits:
			bytes += 7
			dyn += 2
		case KMux:
			bytes += 8
			dyn += 2
			branches++
		case KMemRead:
			bytes += 12
			dyn += 3
			if k.Shared {
				bytes += 4
				dyn++
			}

		// Fused superinstructions: one dispatch covering a former chain.
		// Their dyn counts stay below the sum of their parts — that is the
		// fusion win the cost model (and DynInstrs counters) should see.
		case KBinI:
			bytes += 5
			dyn++
		case KNotAnd:
			bytes += 6
			dyn += 2
		case KMuxMux:
			bytes += 14
			dyn += 3
			branches += 2
		case KBinStore:
			bytes += 8
			dyn += 2
		case KBinStoreExt:
			bytes += 12
			dyn += 3
		case KMuxStore:
			bytes += 12
			dyn += 3
			branches++
		case KMuxStoreExt:
			bytes += 16
			dyn += 4
			branches++

		case KBinBits:
			bytes += 8
			dyn += 2

		// Packed 1-bit accesses: shift+mask on a shared word.
		case KLoadBit:
			bytes += 7
			dyn += 2
		case KLoadBitExt:
			bytes += 13
			dyn += 4
		case KStoreBit:
			bytes += 10
			dyn += 3
		case KStoreBitExt:
			bytes += 16
			dyn += 5
		}
	}
	k.CodeBytes = bytes
	k.DynInstrs = dyn
	k.BranchSites = branches
}
