package sim

import (
	"fmt"
	"math/bits"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
)

// MaxBatchLanes bounds a BatchEngine's lane count: per-partition dirty
// state is one uint64 bitmask, bit l = lane l.
const MaxBatchLanes = 64

// BatchEngine executes up to MaxBatchLanes independent simulations of the
// SAME compiled Program in lockstep — the software analogue of the
// paper's batch-mode result: deduplicated kernels shrink the shared code
// footprint, and running many simulations against that one footprint
// amortizes what is left. Here the shared cost is interpreter dispatch:
// each kernel instruction is decoded once per step and applied to every
// lane that needs it before the next dispatch, so switch overhead,
// activation scanning, commit-loop bookkeeping, and i-cache/branch-
// predictor warmup are paid once per batch instead of once per
// simulation.
//
// State is struct-of-arrays: slot s of lane l lives at state[s*L+l], so
// the per-instruction lane loop walks contiguous memory. Activity
// skipping is per-(partition, lane): dirty[part] is a lane bitmask, and a
// partition whose mask is clean across all lanes is skipped at batch
// granularity with a single test. One lane keeps a worklist instead
// (actDirty, see stepL1).
//
// Lane-isolation invariant: lanes share the Program (code, tables,
// schedules) and NOTHING else. Every mutable word — state, memories,
// temps, dirty masks, counters — is indexed by lane, and no instruction
// ever reads another lane's index. A finished or canceled lane is masked
// out of the active set (execution, commits, and counters freeze) without
// disturbing its final state or the surviving lanes.
type BatchEngine struct {
	p        *codegen.Program
	activity bool
	lanes    int
	// marking mirrors activity: when false the dirty masks are never read
	// for skipping, so stores skip change detection entirely (and suppress
	// consumer marking, keeping Dirty snapshots bit-exact across lane
	// counts).
	marking bool
	// markL1 is the consumer hook for the single-lane fast path, bound at
	// construction; nil when activity skipping is off.
	markL1 func(int32)
	// onAct and onMem are Engine's OnActivation/OnMemAccess hooks (and
	// PartitionStats' activation hook), read only by the one-lane path.
	// memFwd forwards memory reads to onMem; bound once so the
	// instrumented path allocates nothing per activation.
	onAct  func(actIdx int32)
	onMem  func(mem int32, addr uint64, write bool)
	memFwd func(mem int32, addr uint64)

	state []uint64   // [slot*lanes + lane]
	mems  [][]uint64 // per memory: [addr*lanes + lane]
	temps []uint64   // [temp*lanes + lane]
	// dirty (lanes > 1) is per partition: bit l = lane l dirty.
	dirty []uint64
	// actDirty (one lane) is the dirty-activation worklist in schedule
	// order: bit i of word i/64 set means Activations[i] is dirty.
	// posOfPart inverts Activations[i].Part, so a mark on a
	// consumer partition lands on its schedule position.
	actDirty  []uint64
	posOfPart []int32
	// runEnd (one lane) indexes the Program's class runs for the class
	// gear (classgear.go); classExt/classMems are its member-row scratch.
	runEnd    []int32
	classExt  [][]int32
	classMems [][]int32
	// active has bit l set while lane l is live; Deactivate clears it.
	active uint64
	// all is the full lane mask (lanes low bits set).
	all uint64
	// allLanes is [0, 1, ..., lanes-1]; activeList is the live subset,
	// rebuilt on Deactivate/Reset. Hot loops iterate lane lists instead
	// of bit-scanning masks: a slice range is a load+increment where
	// TrailingZeros64 per lane costs several ops and a data-dependent
	// loop-carried chain.
	allLanes   []int32
	activeList []int32
	// laneBuf is scratch for per-activation execution lane lists.
	laneBuf []int32

	// Store-driven register commits, at every lane count. A register can
	// need a commit only if its next-state or enable slot CHANGED since
	// its last scan: next is written solely by change-detected kernel
	// stores, and while an unchanged enable sits at 0 the commit stays
	// blocked (a pending cur!=next under a 0 enable is re-examined the
	// moment the enable's slot moves). Every changed store funnels
	// through markConsumers, which sets the watching register's bit in
	// regPend (bit r of word r/64); the commit phase visits only set bits.
	//
	// regOfSlot maps a slot to the register watching it (-1 almost
	// everywhere). Compile gives every register private next and enable
	// slots, but should two registers watch one slot the extras get a
	// bit in regForce, which is OR-ed back into regPend after every
	// commit pass so they are always scanned. With activity off stores
	// don't change-detect, so regForce holds every register. Reset and
	// RestoreLane set every pending bit, since restored state carries no
	// store history. watched[slot] (lanes > 1) folds "has consumers or
	// feeds a register" into one load for the bulk stores' straight-store
	// shortcut: straight stores skip change detection, which is only
	// sound when nobody observes the change.
	regOfSlot []int32
	regPend   []uint64
	regForce  []uint64
	watched   []bool

	// denseActs/denseDyn accumulate the activation and dynamic-instruction
	// counts of all-lane (dense, lanes==nil) executions within one Step;
	// Step folds them into every lane's counters once, replacing three
	// read-modify-writes per lane per activation. Only the all-lane gear
	// may use them: it runs only when every lane is live and dirty, so the
	// fold applies uniformly.
	denseActs int64
	denseDyn  int64

	outputs map[string]codegen.PortSpec

	// Per-lane counters: a lane's entry advances exactly as it would in a
	// standalone one-lane run.
	Cycles       []int64
	ActsExecuted []int64
	ActsSkipped  []int64
	DynInstrs    []int64

	// OnStep, when set, runs at the start of every Step; the farm's
	// fault-injection layer hooks stall faults in here. One nil check
	// per batch step when unset.
	OnStep func()
}

// NewBatch builds a batch engine with the given lane count (1..
// MaxBatchLanes). activity enables ESSENT-style per-(partition, lane)
// skipping, exactly as in New.
func NewBatch(p *codegen.Program, activity bool, lanes int) (*BatchEngine, error) {
	if lanes < 1 || lanes > MaxBatchLanes {
		return nil, fmt.Errorf("sim: batch lanes %d out of [1, %d]", lanes, MaxBatchLanes)
	}
	maxTemps := 0
	for _, k := range p.Kernels {
		if k.NumTemps > maxTemps {
			maxTemps = k.NumTemps
		}
	}
	e := &BatchEngine{
		p:        p,
		activity: activity,
		marking:  activity,
		lanes:    lanes,
		state:    make([]uint64, p.NumWords*lanes),
		temps:    make([]uint64, maxTemps*lanes),
		all:      ^uint64(0) >> (64 - uint(lanes)),
		outputs:  map[string]codegen.PortSpec{},

		Cycles:       make([]int64, lanes),
		ActsExecuted: make([]int64, lanes),
		ActsSkipped:  make([]int64, lanes),
		DynInstrs:    make([]int64, lanes),
	}
	if activity {
		e.markL1 = func(slot int32) { e.markConsumers(slot, 1) }
	}
	e.memFwd = func(mem int32, addr uint64) { e.onMem(mem, addr, false) }
	e.allLanes = make([]int32, lanes)
	for l := range e.allLanes {
		e.allLanes[l] = int32(l)
	}
	e.laneBuf = make([]int32, lanes)
	if lanes == 1 {
		e.actDirty = make([]uint64, (len(p.Activations)+63)/64)
		e.posOfPart = make([]int32, p.NumParts)
		for i := range p.Activations {
			e.posOfPart[p.Activations[i].Part] = int32(i)
		}
		e.buildClassRuns()
	} else {
		e.dirty = make([]uint64, p.NumParts)
	}
	e.buildRegWatch()
	e.mems = make([][]uint64, len(p.Mems))
	for i, m := range p.Mems {
		e.mems[i] = make([]uint64, m.Depth*lanes)
	}
	for _, out := range p.Outputs {
		e.outputs[out.Name] = out
	}
	e.Reset()
	return e, nil
}

// buildRegWatch wires each register's next-state and enable slots into
// the store path's change notifications (see the regOfSlot field
// comment) and, with several lanes, precomputes the watched-slot map the
// bulk stores use to decide whether change detection can be skipped.
func (e *BatchEngine) buildRegWatch() {
	p := e.p
	e.regOfSlot = make([]int32, p.NumSlots)
	for i := range e.regOfSlot {
		e.regOfSlot[i] = -1
	}
	e.regPend = make([]uint64, (len(p.Regs)+63)/64)
	e.regForce = make([]uint64, len(e.regPend))
	if !e.marking {
		setBits(e.regForce, len(p.Regs))
	}
	watch := func(slot int32, ri int) {
		if e.regOfSlot[slot] < 0 {
			e.regOfSlot[slot] = int32(ri)
		} else {
			e.regForce[ri/64] |= 1 << uint(ri%64) // slot already taken: always scan
		}
	}
	for i := range p.Regs {
		r := &p.Regs[i]
		watch(r.Next, i)
		if r.En >= 0 {
			watch(r.En, i)
		}
	}
	if e.lanes == 1 {
		return
	}
	e.watched = make([]bool, p.NumSlots)
	for s := range e.watched {
		e.watched[s] = p.SlotConsOff[s] != p.SlotConsOff[s+1] || e.regOfSlot[s] >= 0
	}
}

// setBits sets bits [0, n) of bm; higher bits stay as they are.
func setBits(bm []uint64, n int) {
	for w := 0; w < n/64; w++ {
		bm[w] = ^uint64(0)
	}
	if n%64 != 0 {
		bm[n/64] |= 1<<uint(n%64) - 1
	}
}

// laneList expands a lane bitmask into a slice of lane indices, reusing
// the engine's scratch buffer; the full mask returns the precomputed
// dense list without scanning.
func (e *BatchEngine) laneList(mask uint64) []int32 {
	if mask == e.all {
		return e.allLanes
	}
	buf := e.laneBuf[:0]
	for m := mask; m != 0; m &= m - 1 {
		buf = append(buf, int32(bits.TrailingZeros64(m)))
	}
	return buf
}

// Program returns the shared program being executed.
func (e *BatchEngine) Program() *codegen.Program { return e.p }

// Lanes returns the lane count.
func (e *BatchEngine) Lanes() int { return e.lanes }

// Reset zeroes all lanes, restores register reset values, reactivates
// every lane, and marks every (partition, lane) dirty.
func (e *BatchEngine) Reset() {
	L := e.lanes
	for i := range e.state {
		e.state[i] = 0
	}
	for _, r := range e.p.Regs {
		cur, next := int(r.Cur)*L, int(r.Next)*L
		for l := 0; l < L; l++ {
			e.state[cur+l] = r.Reset
			e.state[next+l] = r.Reset
		}
	}
	for _, m := range e.mems {
		for i := range m {
			m[i] = 0
		}
	}
	for i := range e.dirty {
		e.dirty[i] = e.all
	}
	if e.actDirty != nil {
		setBits(e.actDirty, len(e.p.Activations))
	}
	e.active = e.all
	e.activeList = e.allLanes
	setBits(e.regPend, len(e.p.Regs))
	for l := 0; l < L; l++ {
		e.Cycles[l], e.ActsExecuted[l], e.ActsSkipped[l], e.DynInstrs[l] = 0, 0, 0, 0
	}
}

// Deactivate masks lane out of the batch: it stops executing, committing,
// and counting, and its state freezes at its current cycle. Used for
// per-lane early exit (budget reached, job canceled) without aborting the
// other lanes.
func (e *BatchEngine) Deactivate(lane int) {
	e.active &^= uint64(1) << uint(lane)
	live := make([]int32, 0, bits.OnesCount64(e.active))
	for m := e.active; m != 0; m &= m - 1 {
		live = append(live, int32(bits.TrailingZeros64(m)))
	}
	e.activeList = live
}

// LaneActive reports whether the lane is still stepping.
func (e *BatchEngine) LaneActive(lane int) bool { return e.active&(uint64(1)<<uint(lane)) != 0 }

// ActiveLanes returns how many lanes are still stepping.
func (e *BatchEngine) ActiveLanes() int { return bits.OnesCount64(e.active) }

// InputHandle resolves a named input of the shared program; the handle is
// valid for every lane.
func (e *BatchEngine) InputHandle(name string) (InputHandle, bool) {
	return ResolveInput(e.p, name)
}

// SetInput drives a named input of one lane.
func (e *BatchEngine) SetInput(lane int, name string, v uint64) error {
	h, ok := e.InputHandle(name)
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	e.SetLaneInput(lane, h, v)
	return nil
}

// SetLaneInput drives a pre-resolved input on one lane — the hot-path
// form. Invalid handles no-op.
func (e *BatchEngine) SetLaneInput(lane int, h InputHandle, v uint64) {
	if !h.ok {
		return
	}
	v &= h.mask
	idx := int(h.slot)*e.lanes + lane
	if e.state[idx] != v {
		e.state[idx] = v
		e.markConsumers(h.slot, uint64(1)<<uint(lane))
	}
}

// Output reads a named output of one lane as of the lane's last executed
// step.
func (e *BatchEngine) Output(lane int, name string) (uint64, error) {
	out, ok := e.outputs[name]
	if !ok {
		return 0, fmt.Errorf("sim: no output %q", name)
	}
	return e.state[int(out.Slot)*e.lanes+lane], nil
}

// Slot reads a raw state slot of one lane (tests and probes), resolving
// packed 1-bit slots through the program's word/bit map.
func (e *BatchEngine) Slot(lane int, s int32) uint64 {
	w, b := e.p.WordOf(s)
	v := e.state[int(w)*e.lanes+lane]
	if b < 0 {
		return v
	}
	return (v >> uint(b)) & 1
}

// markConsumers dirties every consumer of slot in every lane of
// changedMask — one pass over the consumer list regardless of how many
// lanes changed, where L scalar engines would walk it up to L times —
// and sets the pending bit of the register watching slot, if any.
func (e *BatchEngine) markConsumers(slot int32, changedMask uint64) {
	p := e.p
	e.markParts(p.SlotConsEdge[p.SlotConsOff[slot]:p.SlotConsOff[slot+1]], changedMask)
	if ri := e.regOfSlot[slot]; ri >= 0 {
		e.regPend[ri>>6] |= 1 << uint(ri&63)
	}
}

// markParts dirties the listed partitions in the lanes of mask: with one
// lane, their schedule positions in the activation worklist.
func (e *BatchEngine) markParts(parts []int32, mask uint64) {
	if e.lanes == 1 {
		for _, pt := range parts {
			pos := e.posOfPart[pt]
			e.actDirty[pos>>6] |= 1 << uint(pos&63)
		}
		return
	}
	for _, pt := range parts {
		e.dirty[pt] |= mask
	}
}

// dirtyBit locates partition pt's dirty flag in lane: the word holding
// it and the flag's bit within that word.
func (e *BatchEngine) dirtyBit(pt, lane int) (*uint64, uint64) {
	if e.lanes == 1 {
		pos := e.posOfPart[pt]
		return &e.actDirty[pos>>6], 1 << uint(pos&63)
	}
	return &e.dirty[pt], 1 << uint(lane)
}

// Step evaluates one full cycle for every active lane: the scheduled
// activations (skipping a partition entirely when no active lane is
// dirty), then register and memory commits vectorized over lanes.
func (e *BatchEngine) Step() {
	if e.OnStep != nil {
		e.OnStep()
	}
	// At L=1 the strided layout degenerates to the scalar layout (stride
	// 1, lane 0), so a one-lane batch runs the scalar cycle loop. Engine
	// is a one-lane batch, so scalar and batched runs share this code by
	// construction.
	if e.lanes == 1 {
		if e.active&1 != 0 {
			e.stepL1()
		}
		return
	}
	p := e.p
	L := e.lanes
	active := e.active
	live := e.activeList

	// Per-lane skip accounting: assume every activation skipped, then
	// reverse per executed (activation, lane) in exec. This keeps the
	// counters bit-exact with L scalar engines.
	nActs := int64(len(p.Activations))
	for _, l := range live {
		e.ActsSkipped[l] += nActs
		e.Cycles[l]++
	}

	for i := range p.Activations {
		act := &p.Activations[i]
		var execMask uint64
		if e.activity {
			execMask = e.dirty[act.Part] & active
		} else {
			execMask = active
		}
		if execMask == 0 {
			continue
		}
		e.dirty[act.Part] &^= execMask
		// Four interpreter gears by dirty-lane population: all lanes
		// (dense bounds-check-free scans), exactly one lane (no lane loop
		// at all — with decorrelated stimuli this is the most common
		// case), mostly-dirty (dense compute over every lane, commits
		// gated on the dirty list — straight-line scans beat strided
		// per-lane indexing from about half dirty up), or a scanned
		// lane list when only a few lanes are dirty.
		if execMask == e.all {
			e.execDense(act, nil, 0)
		} else if execMask&(execMask-1) == 0 {
			e.execOne(act, bits.TrailingZeros64(execMask))
		} else if n := bits.OnesCount64(execMask); 2*n >= L {
			e.execDense(act, e.laneList(execMask), execMask)
		} else {
			e.exec(act, e.laneList(execMask))
		}
	}

	// Flush the dense-gear counter accumulators: all-lane executions
	// counted once each, applied to every lane here.
	if e.denseActs != 0 {
		na, nd := e.denseActs, e.denseDyn
		e.denseActs, e.denseDyn = 0, 0
		for _, l := range e.allLanes {
			e.ActsExecuted[l] += na
			e.ActsSkipped[l] -= na
			e.DynInstrs[l] += nd
		}
	}

	e.commitRegs()
	st := e.state

	// Memory commits in port order, per lane (addresses differ by lane).
	for i := range p.WritePorts {
		wp := &p.WritePorts[i]
		m := e.mems[wp.Mem]
		depth := uint64(len(m) / L)
		enBase, addrBase, dataBase := int(wp.En)*L, int(wp.Addr)*L, int(wp.Data)*L
		var changed uint64
		for _, l := range live {
			if st[enBase+int(l)] == 0 {
				continue
			}
			addr := st[addrBase+int(l)] % depth
			data := st[dataBase+int(l)] & wp.Mask
			idx := int(addr)*L + int(l)
			if m[idx] != data {
				m[idx] = data
				changed |= uint64(1) << uint(l)
			}
		}
		if changed != 0 {
			e.markParts(p.MemConsEdge[p.MemConsOff[wp.Mem]:p.MemConsOff[wp.Mem+1]], changed)
		}
	}
}

// commitRegs is the register commit phase at every lane count: it
// visits the pending registers (see the regOfSlot field comment) in
// index order. After each commit it re-reads the live pending word above
// its cursor, so a commit that changes a slot a later register watches
// is seen in this pass, while one an earlier register watches waits for
// the next cycle — the order a scan of every register would give.
func (e *BatchEngine) commitRegs() {
	p := e.p
	st := e.state
	pend := e.regPend
	for w := range pend {
		for m := pend[w]; m != 0; {
			b := uint(bits.TrailingZeros64(m))
			pend[w] &^= 1 << b
			r := &p.Regs[w<<6|int(b)]
			if e.lanes > 1 {
				e.commitRegLanes(r)
			} else if (r.En < 0 || st[r.En] != 0) && st[r.Cur] != st[r.Next] {
				st[r.Cur] = st[r.Next]
				e.markConsumers(r.Cur, 1)
			}
			m = pend[w] &^ (2<<b - 1)
		}
	}
	for w, f := range e.regForce {
		pend[w] |= f
	}
}

// commitRegLanes commits one register across the live lanes: it gathers
// the lanes whose value moved and wakes consumers with one pass over the
// fan-out list. With every lane live (the common case) the scan is a
// bounds-check-free range loop over the contiguous lane stripe.
func (e *BatchEngine) commitRegLanes(r *codegen.RegSpec) {
	L := e.lanes
	st := e.state
	curBase, nextBase := int(r.Cur)*L, int(r.Next)*L
	var changed uint64
	if e.active == e.all {
		cur := st[curBase : curBase+L]
		next := st[nextBase : nextBase+L][:L]
		// Branchless prepass: most registers do not move on most
		// cycles, and a pure load-xor-or scan over the stripe is
		// cheaper (and better predicted) than a compare-and-write
		// loop. Only stripes that actually changed pay the real pass.
		var diff uint64
		for l := range cur {
			diff |= cur[l] ^ next[l]
		}
		if diff == 0 {
			return
		}
		if r.En >= 0 {
			en := st[int(r.En)*L : int(r.En)*L+L][:L]
			for l := range cur {
				if en[l] != 0 && cur[l] != next[l] {
					cur[l] = next[l]
					changed |= uint64(1) << uint(l)
				}
			}
		} else {
			for l := range cur {
				if cur[l] != next[l] {
					cur[l] = next[l]
					changed |= uint64(1) << uint(l)
				}
			}
		}
	} else {
		enBase := -1
		if r.En >= 0 {
			enBase = int(r.En) * L
		}
		for _, l := range e.activeList {
			if enBase >= 0 && st[enBase+int(l)] == 0 {
				continue
			}
			next := st[nextBase+int(l)]
			if st[curBase+int(l)] != next {
				st[curBase+int(l)] = next
				changed |= uint64(1) << uint(l)
			}
		}
	}
	if changed != 0 {
		e.markConsumers(r.Cur, changed)
	}
}

// stepL1 is Step for a one-lane batch, and so the scalar engine: state
// and temps are in the scalar layout at L=1 and kernels run through the
// shared dispatch core. It walks two worklists instead of scanning: the
// dirty activations (actDirty) in schedule order, then the pending
// registers (commitRegs). After each kernel it re-reads the live dirty
// word above its cursor, so a mark on a later activation runs this cycle
// while a mark on the current or an earlier one waits for the next —
// what a scan testing every activation's flag in order would do. With
// activity off every activation is marked up front. An activation in a
// class run with enough dirty members takes the class gear (runClass),
// which runs all of them and moves the cursor past the run; with an
// Engine hook set every activation runs alone, so the hooks see the
// schedule-order stream. The hooks cost one nil check per executed
// activation and one per write-port commit.
func (e *BatchEngine) stepL1() {
	p := e.p
	st := e.state
	onMem := e.memFwd
	if e.onMem == nil {
		onMem = nil
	}
	dirty := e.actDirty
	if !e.activity {
		setBits(dirty, len(p.Activations))
	}
	runEnd := e.runEnd
	if e.onAct != nil || e.onMem != nil {
		runEnd = nil
	}
	var executed, dyn int64
	for w := 0; w < len(dirty); w++ {
		for m := dirty[w]; m != 0; {
			b := uint(bits.TrailingZeros64(m))
			dirty[w] &^= 1 << b
			i := w<<6 | int(b)
			act := &p.Activations[i]
			k := p.Kernels[act.Kernel]
			if runEnd != nil && runEnd[i] != 0 {
				if n := e.runClass(i, int(runEnd[i])); n != 0 {
					executed += int64(n)
					dyn += int64(n * k.DynInstrs)
					last := int(runEnd[i]) - 1 // resume the scan after the run
					w = last >> 6
					m = dirty[w] &^ (2<<uint(last&63) - 1)
					continue
				}
			}
			execKernel(p, k, act, st, e.temps, e.mems, e.markL1, onMem)
			executed++
			dyn += int64(k.DynInstrs)
			if e.onAct != nil {
				e.onAct(int32(i))
			}
			m = dirty[w] &^ (2<<b - 1)
		}
	}
	e.ActsExecuted[0] += executed
	e.ActsSkipped[0] += int64(len(p.Activations)) - executed
	e.DynInstrs[0] += dyn
	e.commitRegs()
	for i := range p.WritePorts {
		wp := &p.WritePorts[i]
		if st[wp.En] == 0 {
			continue
		}
		m := e.mems[wp.Mem]
		addr := st[wp.Addr] % uint64(len(m))
		data := st[wp.Data] & wp.Mask
		if e.onMem != nil {
			e.onMem(wp.Mem, addr, true)
		}
		if m[addr] != data {
			m[addr] = data
			e.markParts(p.MemConsEdge[p.MemConsOff[wp.Mem]:p.MemConsOff[wp.Mem+1]], 1)
		}
	}
	e.Cycles[0]++
}

// exec interprets one kernel activation for the listed lanes: one
// instruction decode — and for binary ops, one operator dispatch — then a
// tight lane loop per operation.
func (e *BatchEngine) exec(act *codegen.Activation, lanes []int32) {
	k := e.p.Kernels[act.Kernel]
	L := e.lanes
	t := e.temps
	st := e.state
	for i := range k.Code {
		in := &k.Code[i]
		switch in.Op {
		case codegen.KConst:
			d, v := int(in.Dst)*L, in.Val
			for _, l := range lanes {
				t[d+int(l)] = v
			}
		case codegen.KLoad:
			d, a := int(in.Dst)*L, int(in.A)*L
			for _, l := range lanes {
				t[d+int(l)] = st[a+int(l)]
			}
		case codegen.KLoadExt:
			d, a := int(in.Dst)*L, int(act.Ext[in.A])*L
			for _, l := range lanes {
				t[d+int(l)] = st[a+int(l)]
			}
		case codegen.KStore:
			e.storeLanes(in.Dst, int(in.A)*L, in.Mask, lanes)
		case codegen.KStoreExt:
			e.storeLanes(act.Ext[in.Dst], int(in.A)*L, in.Mask, lanes)
		case codegen.KBin:
			evalBinLanes(t, in, L, lanes)
		case codegen.KNot:
			d, a, mask := int(in.Dst)*L, int(in.A)*L, in.Mask
			for _, l := range lanes {
				t[d+int(l)] = ^t[a+int(l)] & mask
			}
		case codegen.KMux:
			d, s, a, b := int(in.Dst)*L, int(in.A)*L, int(in.B)*L, int(in.C)*L
			for _, l := range lanes {
				if t[s+int(l)] != 0 {
					t[d+int(l)] = t[a+int(l)]
				} else {
					t[d+int(l)] = t[b+int(l)]
				}
			}
		case codegen.KBits:
			d, a, sh, mask := int(in.Dst)*L, int(in.A)*L, in.Val, in.Mask
			for _, l := range lanes {
				t[d+int(l)] = (t[a+int(l)] >> sh) & mask
			}
		case codegen.KMemRead:
			mi := in.B
			if k.Shared {
				mi = act.Mems[in.B]
			}
			mem := e.mems[mi]
			depth := uint64(len(mem) / L)
			d, a := int(in.Dst)*L, int(in.A)*L
			for _, l := range lanes {
				t[d+int(l)] = mem[int(t[a+int(l)]%depth)*L+int(l)]
			}

		case codegen.KBinI:
			evalBinImmLanes(t, in, L, lanes)
		case codegen.KNotAnd:
			d, a, b, mask := int(in.Dst)*L, int(in.A)*L, int(in.B)*L, in.Mask
			for _, l := range lanes {
				t[d+int(l)] = ^t[a+int(l)] & t[b+int(l)] & mask
			}
		case codegen.KMuxMux:
			d, s1, v1, s2 := int(in.Dst)*L, int(in.A)*L, int(in.B)*L, int(in.C)*L
			tv, fv := int(int32(uint32(in.Val)))*L, int(int32(in.Val>>32))*L
			for _, l := range lanes {
				if t[s1+int(l)] != 0 {
					t[d+int(l)] = t[v1+int(l)]
				} else if t[s2+int(l)] != 0 {
					t[d+int(l)] = t[tv+int(l)]
				} else {
					t[d+int(l)] = t[fv+int(l)]
				}
			}
		case codegen.KBinStore, codegen.KBinStoreExt:
			evalBinLanes(t, in, L, lanes)
			slot := in.C
			if in.Op == codegen.KBinStoreExt {
				slot = act.Ext[in.C]
			}
			e.storeLanes(slot, int(in.Dst)*L, in.Mask, lanes)
		case codegen.KMuxStore, codegen.KMuxStoreExt:
			d, s1, v1, v0 := int(in.Dst)*L, int(in.A)*L, int(in.B)*L, int(in.C)*L
			for _, l := range lanes {
				if t[s1+int(l)] != 0 {
					t[d+int(l)] = t[v1+int(l)]
				} else {
					t[d+int(l)] = t[v0+int(l)]
				}
			}
			slot := int32(uint32(in.Val))
			if in.Op == codegen.KMuxStoreExt {
				slot = act.Ext[slot]
			}
			e.storeLanes(slot, d, in.Mask, lanes)

		case codegen.KBinBits:
			evalBinLanes(t, in, L, lanes) // masked bin result lands in Dst
			d := int(in.Dst) * L
			sh, fm := uint(in.C), in.Val
			for _, l := range lanes {
				t[d+int(l)] = (t[d+int(l)] >> sh) & fm
			}

		case codegen.KLoadBit:
			d, a, sh := int(in.Dst)*L, int(in.A)*L, uint(in.B)
			for _, l := range lanes {
				t[d+int(l)] = (st[a+int(l)] >> sh) & 1
			}
		case codegen.KLoadBitExt:
			slot := act.Ext[in.A]
			d, a := int(in.Dst)*L, int(e.p.SlotWord[slot])*L
			sh := uint(e.p.SlotBit[slot])
			for _, l := range lanes {
				t[d+int(l)] = (st[a+int(l)] >> sh) & 1
			}
		case codegen.KStoreBit:
			e.storeBitLanes(in.Dst, in.B, uint(in.C), int(in.A)*L, lanes)
		case codegen.KStoreBitExt:
			slot := act.Ext[in.Dst]
			e.storeBitLanes(slot, e.p.SlotWord[slot], uint(e.p.SlotBit[slot]), int(in.A)*L, lanes)
		}
	}
	dyn := int64(k.DynInstrs)
	for _, l := range lanes {
		e.ActsExecuted[l]++
		e.ActsSkipped[l]--
		e.DynInstrs[l] += dyn
	}
}

// execDense interprets one kernel activation with dense per-lane slices:
// they are carved once per instruction so the inner loops are
// bounds-check-free range scans over contiguous memory; this is where
// lane batching beats the scalar engine hardest.
//
// lanes selects the dirty lanes whose effects commit. nil means EVERY
// lane is dirty — the common case on busy designs and the whole batch
// when activity skipping is off. A non-nil list picks the mostly-dirty
// middle ground: temps are still COMPUTED for all lanes (sound because
// kernels define every temp before reading it, and temp writes, state
// reads, and memory reads are free of per-lane side effects), but
// stores, consumer marking, and the activity counters commit only for
// the listed lanes — a clean lane's state, dirty bits, and counters are
// untouched, bit-exact with running the listed lanes one by one. Dense
// straight-line compute beats per-lane strided indexing well below
// half-dirty, so Step switches gears on the dirty popcount.
func (e *BatchEngine) execDense(act *codegen.Activation, lanes []int32, execMask uint64) {
	k := e.p.Kernels[act.Kernel]
	L := e.lanes
	t := e.temps
	st := e.state
	for i := range k.Code {
		in := &k.Code[i]
		switch in.Op {
		case codegen.KConst:
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			v := in.Val
			for l := range d {
				d[l] = v
			}
		case codegen.KLoad:
			// An explicit lane loop: for these short stripes (L words) the
			// memmove call overhead costs more than the loads themselves.
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			a := st[int(in.A)*L : int(in.A)*L+L][:L]
			for l := range d {
				d[l] = a[l]
			}
		case codegen.KLoadExt:
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			ab := int(act.Ext[in.A]) * L
			a := st[ab : ab+L][:L]
			for l := range d {
				d[l] = a[l]
			}
		case codegen.KStore:
			e.storeGear(in.Dst, int(in.A)*L, in.Mask, lanes)
		case codegen.KStoreExt:
			e.storeGear(act.Ext[in.Dst], int(in.A)*L, in.Mask, lanes)
		case codegen.KBin:
			evalBinDense(t, in, L)
		case codegen.KNot:
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			a := t[int(in.A)*L : int(in.A)*L+L][:L]
			mask := in.Mask
			for l := range d {
				d[l] = ^a[l] & mask
			}
		case codegen.KMux:
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			s := t[int(in.A)*L : int(in.A)*L+L][:L]
			a := t[int(in.B)*L : int(in.B)*L+L][:L]
			b := t[int(in.C)*L : int(in.C)*L+L][:L]
			for l := range d {
				if s[l] != 0 {
					d[l] = a[l]
				} else {
					d[l] = b[l]
				}
			}
		case codegen.KBits:
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			a := t[int(in.A)*L : int(in.A)*L+L][:L]
			sh, mask := in.Val, in.Mask
			for l := range d {
				d[l] = (a[l] >> sh) & mask
			}
		case codegen.KMemRead:
			mi := in.B
			if k.Shared {
				mi = act.Mems[in.B]
			}
			mem := e.mems[mi]
			depth := uint64(len(mem) / L)
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			a := t[int(in.A)*L : int(in.A)*L+L][:L]
			for l := range d {
				d[l] = mem[int(a[l]%depth)*L+l]
			}

		case codegen.KBinI:
			evalBinImmDense(t, in, L)
		case codegen.KNotAnd:
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			a := t[int(in.A)*L : int(in.A)*L+L][:L]
			b := t[int(in.B)*L : int(in.B)*L+L][:L]
			mask := in.Mask
			for l := range d {
				d[l] = ^a[l] & b[l] & mask
			}
		case codegen.KMuxMux:
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			s1 := t[int(in.A)*L : int(in.A)*L+L][:L]
			v1 := t[int(in.B)*L : int(in.B)*L+L][:L]
			s2 := t[int(in.C)*L : int(in.C)*L+L][:L]
			tv := t[int(int32(uint32(in.Val)))*L : int(int32(uint32(in.Val)))*L+L][:L]
			fv := t[int(int32(in.Val>>32))*L : int(int32(in.Val>>32))*L+L][:L]
			for l := range d {
				if s1[l] != 0 {
					d[l] = v1[l]
				} else if s2[l] != 0 {
					d[l] = tv[l]
				} else {
					d[l] = fv[l]
				}
			}
		case codegen.KBinStore, codegen.KBinStoreExt:
			evalBinDense(t, in, L)
			slot := in.C
			if in.Op == codegen.KBinStoreExt {
				slot = act.Ext[in.C]
			}
			e.storeGear(slot, int(in.Dst)*L, in.Mask, lanes)
		case codegen.KMuxStore, codegen.KMuxStoreExt:
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			s1 := t[int(in.A)*L : int(in.A)*L+L][:L]
			v1 := t[int(in.B)*L : int(in.B)*L+L][:L]
			v0 := t[int(in.C)*L : int(in.C)*L+L][:L]
			for l := range d {
				if s1[l] != 0 {
					d[l] = v1[l]
				} else {
					d[l] = v0[l]
				}
			}
			slot := int32(uint32(in.Val))
			if in.Op == codegen.KMuxStoreExt {
				slot = act.Ext[slot]
			}
			e.storeGear(slot, int(in.Dst)*L, in.Mask, lanes)

		case codegen.KBinBits:
			evalBinDense(t, in, L) // bin result (masked by in.Mask) lands in Dst
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			sh, fm := uint(in.C), in.Val
			for l := range d {
				d[l] = (d[l] >> sh) & fm
			}

		case codegen.KLoadBit:
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			a := st[int(in.A)*L : int(in.A)*L+L][:L]
			sh := uint(in.B)
			for l := range d {
				d[l] = (a[l] >> sh) & 1
			}
		case codegen.KLoadBitExt:
			slot := act.Ext[in.A]
			w := int(e.p.SlotWord[slot]) * L
			d := t[int(in.Dst)*L : int(in.Dst)*L+L]
			a := st[w : w+L][:L]
			sh := uint(e.p.SlotBit[slot])
			for l := range d {
				d[l] = (a[l] >> sh) & 1
			}
		case codegen.KStoreBit:
			e.storeBitLanes(in.Dst, in.B, uint(in.C), int(in.A)*L, e.commitLanes(lanes))
		case codegen.KStoreBitExt:
			slot := act.Ext[in.Dst]
			e.storeBitLanes(slot, e.p.SlotWord[slot], uint(e.p.SlotBit[slot]), int(in.A)*L, e.commitLanes(lanes))
		}
	}
	if lanes == nil {
		// All lanes executed: fold into the per-Step accumulators instead
		// of 3 read-modify-writes per lane (Step flushes them once).
		e.denseActs++
		e.denseDyn += int64(k.DynInstrs)
		return
	}
	dyn := int64(k.DynInstrs)
	if e.active == e.all {
		// Mostly-dirty gear with every lane live: count all lanes via the
		// per-Step accumulators and reverse only the clean complement —
		// fewer than half the lanes by the gear's threshold.
		e.denseActs++
		e.denseDyn += dyn
		for m := ^execMask & e.all; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			e.ActsExecuted[l]--
			e.ActsSkipped[l]++
			e.DynInstrs[l] -= dyn
		}
		return
	}
	for _, l := range lanes {
		e.ActsExecuted[l]++
		e.ActsSkipped[l]--
		e.DynInstrs[l] += dyn
	}
}

// commitLanes resolves execDense's lane selector: nil means every lane.
func (e *BatchEngine) commitLanes(lanes []int32) []int32 {
	if lanes == nil {
		return e.allLanes
	}
	return lanes
}

// storeGear routes a dense-computed store to the right commit path: a
// contiguous all-lane scan when every lane is dirty (nil), or the
// lane-list store that leaves clean lanes' state and dirty bits alone.
func (e *BatchEngine) storeGear(slot int32, tempBase int, mask uint64, lanes []int32) {
	if lanes == nil {
		e.storeDense(slot, tempBase, mask)
	} else {
		e.storeLanes(slot, tempBase, mask, lanes)
	}
}

// evalBinImmDense is evalBinDense for immediate-operand (KBinI) forms:
// the constant rides in the instruction, so each lane does one load, one
// ALU op, one store.
func evalBinImmDense(t []uint64, in *codegen.Instr, L int) {
	d := t[int(in.Dst)*L : int(in.Dst)*L+L]
	a := t[int(in.A)*L : int(in.A)*L+L][:L]
	c, m := in.Val, in.Mask
	switch in.BinOp {
	case circuit.OpOr:
		for l := range d {
			d[l] = (a[l] | c) & m
		}
	case circuit.OpXor:
		for l := range d {
			d[l] = (a[l] ^ c) & m
		}
	case circuit.OpAdd:
		for l := range d {
			d[l] = (a[l] + c) & m
		}
	case circuit.OpEq:
		for l := range d {
			var v uint64
			if a[l] == c {
				v = 1
			}
			d[l] = v
		}
	case circuit.OpGeq:
		for l := range d {
			var v uint64
			if a[l] >= c {
				v = 1
			}
			d[l] = v
		}
	case circuit.OpShl:
		if c >= 64 {
			for l := range d {
				d[l] = 0
			}
		} else {
			for l := range d {
				d[l] = (a[l] << c) & m
			}
		}
	case circuit.OpShr:
		if c >= 64 {
			for l := range d {
				d[l] = 0
			}
		} else {
			for l := range d {
				d[l] = (a[l] >> c) & m
			}
		}
	default:
		for l := range d {
			d[l] = EvalBinMask(in.BinOp, m, a[l], c, 0)
		}
	}
}

// storeBitLanes publishes the low bit of per-lane temps into one bit of a
// shared packed state word, marking consumers of the LOGICAL slot for the
// changed lanes. Without marking (activity off) it is a straight
// read-modify-write per lane.
func (e *BatchEngine) storeBitLanes(slot, word int32, bit uint, tempBase int, lanes []int32) {
	L := e.lanes
	base := int(word) * L
	t, st := e.temps, e.state
	if !e.marking || !e.watched[slot] {
		for _, l := range lanes {
			v := t[tempBase+int(l)] & 1
			st[base+int(l)] = st[base+int(l)]&^(1<<bit) | v<<bit
		}
		return
	}
	var changed uint64
	for _, l := range lanes {
		v := t[tempBase+int(l)] & 1
		old := (st[base+int(l)] >> bit) & 1
		if old != v {
			st[base+int(l)] ^= (old ^ v) << bit
			changed |= uint64(1) << uint(l)
		}
	}
	if changed != 0 {
		e.markConsumers(slot, changed)
	}
}

// execOne interprets one kernel activation for a single lane — the
// scalar engine's hot loop transposed onto the strided batch layout.
// With sparse, decorrelated stimuli most activations are dirty in one
// lane only, and here they cost what the scalar engine pays: one decode,
// one op, no lane loop.
func (e *BatchEngine) execOne(act *codegen.Activation, lane int) {
	k := e.p.Kernels[act.Kernel]
	L := e.lanes
	t := e.temps
	st := e.state
	bit := uint64(1) << uint(lane)
	for i := range k.Code {
		in := &k.Code[i]
		switch in.Op {
		case codegen.KConst:
			t[int(in.Dst)*L+lane] = in.Val
		case codegen.KLoad:
			t[int(in.Dst)*L+lane] = st[int(in.A)*L+lane]
		case codegen.KLoadExt:
			t[int(in.Dst)*L+lane] = st[int(act.Ext[in.A])*L+lane]
		case codegen.KStore:
			e.storeOne(in.Dst, t[int(in.A)*L+lane]&in.Mask, lane, bit)
		case codegen.KStoreExt:
			e.storeOne(act.Ext[in.Dst], t[int(in.A)*L+lane]&in.Mask, lane, bit)
		case codegen.KBin:
			// The same inline forms as execKernel: the EvalBinMask call
			// plus its op switch costs more than the arithmetic here.
			a, b := t[int(in.A)*L+lane], t[int(in.B)*L+lane]
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
			t[int(in.Dst)*L+lane] = v
		case codegen.KNot:
			t[int(in.Dst)*L+lane] = ^t[int(in.A)*L+lane] & in.Mask
		case codegen.KMux:
			if t[int(in.A)*L+lane] != 0 {
				t[int(in.Dst)*L+lane] = t[int(in.B)*L+lane]
			} else {
				t[int(in.Dst)*L+lane] = t[int(in.C)*L+lane]
			}
		case codegen.KBits:
			t[int(in.Dst)*L+lane] = (t[int(in.A)*L+lane] >> in.Val) & in.Mask
		case codegen.KMemRead:
			mi := in.B
			if k.Shared {
				mi = act.Mems[in.B]
			}
			mem := e.mems[mi]
			depth := uint64(len(mem) / L)
			t[int(in.Dst)*L+lane] = mem[int(t[int(in.A)*L+lane]%depth)*L+lane]

		case codegen.KBinI:
			a, c := t[int(in.A)*L+lane], in.Val
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
			t[int(in.Dst)*L+lane] = v
		case codegen.KNotAnd:
			t[int(in.Dst)*L+lane] = ^t[int(in.A)*L+lane] & t[int(in.B)*L+lane] & in.Mask
		case codegen.KMuxMux:
			if t[int(in.A)*L+lane] != 0 {
				t[int(in.Dst)*L+lane] = t[int(in.B)*L+lane]
			} else if t[int(in.C)*L+lane] != 0 {
				t[int(in.Dst)*L+lane] = t[int(int32(uint32(in.Val)))*L+lane]
			} else {
				t[int(in.Dst)*L+lane] = t[int(int32(in.Val>>32))*L+lane]
			}
		case codegen.KBinStore, codegen.KBinStoreExt:
			v := EvalBinMask(in.BinOp, in.Mask, t[int(in.A)*L+lane], t[int(in.B)*L+lane], uint8(in.Val))
			t[int(in.Dst)*L+lane] = v
			slot := in.C
			if in.Op == codegen.KBinStoreExt {
				slot = act.Ext[in.C]
			}
			e.storeOne(slot, v&in.Mask, lane, bit)
		case codegen.KMuxStore, codegen.KMuxStoreExt:
			v := t[int(in.C)*L+lane]
			if t[int(in.A)*L+lane] != 0 {
				v = t[int(in.B)*L+lane]
			}
			t[int(in.Dst)*L+lane] = v
			slot := int32(uint32(in.Val))
			if in.Op == codegen.KMuxStoreExt {
				slot = act.Ext[slot]
			}
			e.storeOne(slot, v&in.Mask, lane, bit)

		case codegen.KBinBits:
			v := EvalBinMask(in.BinOp, in.Mask, t[int(in.A)*L+lane], t[int(in.B)*L+lane], 0)
			t[int(in.Dst)*L+lane] = (v >> uint(in.C)) & in.Val

		case codegen.KLoadBit:
			t[int(in.Dst)*L+lane] = (st[int(in.A)*L+lane] >> uint(in.B)) & 1
		case codegen.KLoadBitExt:
			slot := act.Ext[in.A]
			t[int(in.Dst)*L+lane] = (st[int(e.p.SlotWord[slot])*L+lane] >> uint(e.p.SlotBit[slot])) & 1
		case codegen.KStoreBit:
			e.storeBitOne(in.Dst, in.B, uint(in.C), t[int(in.A)*L+lane]&1, lane, bit)
		case codegen.KStoreBitExt:
			slot := act.Ext[in.Dst]
			e.storeBitOne(slot, e.p.SlotWord[slot], uint(e.p.SlotBit[slot]), t[int(in.A)*L+lane]&1, lane, bit)
		}
	}
	e.ActsExecuted[lane]++
	e.ActsSkipped[lane]--
	e.DynInstrs[lane] += int64(k.DynInstrs)
}

// storeOne publishes one lane's already-masked value to a state slot.
func (e *BatchEngine) storeOne(slot int32, v uint64, lane int, bit uint64) {
	idx := int(slot)*e.lanes + lane
	if !e.marking {
		e.state[idx] = v
		return
	}
	if e.state[idx] != v {
		e.state[idx] = v
		e.markConsumers(slot, bit)
	}
}

// storeBitOne publishes one lane's bit into a packed state word.
func (e *BatchEngine) storeBitOne(slot, word int32, b uint, v uint64, lane int, laneBit uint64) {
	idx := int(word)*e.lanes + lane
	st := e.state
	if !e.marking {
		st[idx] = st[idx]&^(1<<b) | v<<b
		return
	}
	if old := (st[idx] >> b) & 1; old != v {
		st[idx] ^= (old ^ v) << b
		e.markConsumers(slot, laneBit)
	}
}

// storeDense is storeLanes for the all-lanes case: one bounds-check-free
// compare/publish scan, then a single consumer-marking pass.
func (e *BatchEngine) storeDense(slot int32, tempBase int, mask uint64) {
	L := e.lanes
	src := e.temps[tempBase : tempBase+L]
	dst := e.state[int(slot)*L : int(slot)*L+L][:L]
	if !e.marking || !e.watched[slot] {
		for l, v := range src {
			dst[l] = v & mask
		}
		return
	}
	var changed uint64
	for l, v := range src {
		v &= mask
		if dst[l] != v {
			dst[l] = v
			changed |= uint64(1) << uint(l)
		}
	}
	if changed != 0 {
		e.markConsumers(slot, changed)
	}
}

// evalBinDense applies one binary instruction to every lane: operator
// dispatch hoisted out of the loop, operands carved into equal-length
// slices so the per-lane body compiles to straight-line masked ALU ops.
// The four lane helpers keep a loop for exactly the operators some bench
// design executes; the rest take a per-lane EvalBinMask, the one
// definition of every cold operator (DESIGN.md "The interpreter hot
// path").
func evalBinDense(t []uint64, in *codegen.Instr, L int) {
	d := t[int(in.Dst)*L : int(in.Dst)*L+L]
	a := t[int(in.A)*L : int(in.A)*L+L][:L]
	b := t[int(in.B)*L : int(in.B)*L+L][:L]
	m := in.Mask
	switch in.BinOp {
	case circuit.OpAnd:
		for l := range d {
			d[l] = a[l] & b[l] & m
		}
	case circuit.OpOr:
		for l := range d {
			d[l] = (a[l] | b[l]) & m
		}
	case circuit.OpXor:
		for l := range d {
			d[l] = (a[l] ^ b[l]) & m
		}
	case circuit.OpAdd:
		for l := range d {
			d[l] = (a[l] + b[l]) & m
		}
	case circuit.OpSub:
		for l := range d {
			d[l] = (a[l] - b[l]) & m
		}
	case circuit.OpNeq:
		for l := range d {
			var v uint64
			if a[l] != b[l] {
				v = 1
			}
			d[l] = v
		}
	case circuit.OpLt:
		for l := range d {
			var v uint64
			if a[l] < b[l] {
				v = 1
			}
			d[l] = v
		}
	case circuit.OpGeq:
		for l := range d {
			var v uint64
			if a[l] >= b[l] {
				v = 1
			}
			d[l] = v
		}
	case circuit.OpShl:
		for l := range d {
			sh := b[l]
			if sh >= 64 {
				d[l] = 0
			} else {
				d[l] = (a[l] << sh) & m
			}
		}
	case circuit.OpShr:
		for l := range d {
			sh := b[l]
			if sh >= 64 {
				d[l] = 0
			} else {
				d[l] = (a[l] >> sh) & m
			}
		}
	default:
		for l := range d {
			d[l] = EvalBinMask(in.BinOp, m, a[l], b[l], uint8(in.Val))
		}
	}
}

// evalBinImmLanes is evalBinLanes for immediate-operand (KBinI) forms:
// the operator switch is hoisted out of the lane loop, replacing a per-
// lane EvalBinMask call.
func evalBinImmLanes(t []uint64, in *codegen.Instr, L int, lanes []int32) {
	d, a := int(in.Dst)*L, int(in.A)*L
	c, m := in.Val, in.Mask
	switch in.BinOp {
	case circuit.OpOr:
		for _, l := range lanes {
			t[d+int(l)] = (t[a+int(l)] | c) & m
		}
	case circuit.OpXor:
		for _, l := range lanes {
			t[d+int(l)] = (t[a+int(l)] ^ c) & m
		}
	case circuit.OpAdd:
		for _, l := range lanes {
			t[d+int(l)] = (t[a+int(l)] + c) & m
		}
	case circuit.OpEq:
		for _, l := range lanes {
			var v uint64
			if t[a+int(l)] == c {
				v = 1
			}
			t[d+int(l)] = v
		}
	case circuit.OpGeq:
		for _, l := range lanes {
			var v uint64
			if t[a+int(l)] >= c {
				v = 1
			}
			t[d+int(l)] = v
		}
	case circuit.OpShl:
		if c >= 64 {
			for _, l := range lanes {
				t[d+int(l)] = 0
			}
		} else {
			for _, l := range lanes {
				t[d+int(l)] = (t[a+int(l)] << c) & m
			}
		}
	case circuit.OpShr:
		if c >= 64 {
			for _, l := range lanes {
				t[d+int(l)] = 0
			}
		} else {
			for _, l := range lanes {
				t[d+int(l)] = (t[a+int(l)] >> c) & m
			}
		}
	default:
		for _, l := range lanes {
			t[d+int(l)] = EvalBinMask(in.BinOp, m, t[a+int(l)], c, 0)
		}
	}
}

// evalBinLanes applies one binary instruction across lanes with the
// operator switch hoisted out of the lane loop — the scalar engine pays
// that dispatch per (instruction, simulation); here it is paid once per
// instruction per batch.
func evalBinLanes(t []uint64, in *codegen.Instr, L int, lanes []int32) {
	d, a, b := int(in.Dst)*L, int(in.A)*L, int(in.B)*L
	m := in.Mask
	switch in.BinOp {
	case circuit.OpAnd:
		for _, l := range lanes {
			t[d+int(l)] = t[a+int(l)] & t[b+int(l)] & m
		}
	case circuit.OpOr:
		for _, l := range lanes {
			t[d+int(l)] = (t[a+int(l)] | t[b+int(l)]) & m
		}
	case circuit.OpXor:
		for _, l := range lanes {
			t[d+int(l)] = (t[a+int(l)] ^ t[b+int(l)]) & m
		}
	case circuit.OpAdd:
		for _, l := range lanes {
			t[d+int(l)] = (t[a+int(l)] + t[b+int(l)]) & m
		}
	case circuit.OpSub:
		for _, l := range lanes {
			t[d+int(l)] = (t[a+int(l)] - t[b+int(l)]) & m
		}
	case circuit.OpNeq:
		for _, l := range lanes {
			var v uint64
			if t[a+int(l)] != t[b+int(l)] {
				v = 1
			}
			t[d+int(l)] = v
		}
	case circuit.OpLt:
		for _, l := range lanes {
			var v uint64
			if t[a+int(l)] < t[b+int(l)] {
				v = 1
			}
			t[d+int(l)] = v
		}
	case circuit.OpGeq:
		for _, l := range lanes {
			var v uint64
			if t[a+int(l)] >= t[b+int(l)] {
				v = 1
			}
			t[d+int(l)] = v
		}
	case circuit.OpShl:
		for _, l := range lanes {
			sh := t[b+int(l)]
			if sh >= 64 {
				t[d+int(l)] = 0
			} else {
				t[d+int(l)] = (t[a+int(l)] << sh) & m
			}
		}
	case circuit.OpShr:
		for _, l := range lanes {
			sh := t[b+int(l)]
			if sh >= 64 {
				t[d+int(l)] = 0
			} else {
				t[d+int(l)] = (t[a+int(l)] >> sh) & m
			}
		}
	default:
		for _, l := range lanes {
			t[d+int(l)] = EvalBinMask(in.BinOp, m, t[a+int(l)], t[b+int(l)], uint8(in.Val))
		}
	}
}

// storeLanes publishes temp values to a state slot across lanes, waking
// consumers of the changed lanes with one fan-out pass.
func (e *BatchEngine) storeLanes(slot int32, tempBase int, mask uint64, lanes []int32) {
	L := e.lanes
	base := int(slot) * L
	t := e.temps
	st := e.state
	// Slots nothing observes (no consuming partition, no register
	// watching them) can never wake a partition or gate a commit: skip
	// the per-lane change detection and store straight.
	if !e.marking || !e.watched[slot] {
		for _, l := range lanes {
			st[base+int(l)] = t[tempBase+int(l)] & mask
		}
		return
	}
	var changed uint64
	for _, l := range lanes {
		v := t[tempBase+int(l)] & mask
		if st[base+int(l)] != v {
			st[base+int(l)] = v
			changed |= uint64(1) << uint(l)
		}
	}
	if changed != 0 {
		e.markConsumers(slot, changed)
	}
}
