package codegen

import (
	"fmt"

	"dedupsim/internal/circuit"
	"dedupsim/internal/dedup"
	"dedupsim/internal/graph"
)

// compiler carries slot-assignment state across partition lowering.
type compiler struct {
	c  *circuit.Circuit
	dr *dedup.Result
	// classes lists each shared class's partitions by class ID (see
	// classParts).
	classes [][]int32

	numSlots int
	// slotOf is the value slot per node (-1 = temp-only).
	slotOf []int32
	// regNextSlot / regEnSlot are the commit-phase slots of registers.
	regNextSlot map[graph.NodeID]int32
	regEnSlot   map[graph.NodeID]int32
	// wpSlot holds [addr, data, en] staging slots per OpMemWrite node.
	wpSlot map[graph.NodeID][3]int32

	regs       []RegSpec
	writePorts []WritePortSpec
	inputs     []PortSpec
	outputs    []PortSpec

	// 1-bit signal packing. Unpacked slots map identically to state words
	// (word == slot, bit == -1); packed slots are numbered from numWords'
	// tail region and share words, 64 bits each. packedNode is nil when
	// packing is disabled or found nothing to pack.
	packing       bool
	packedNode    []bool
	slotWord      []int32
	slotBit       []int8
	numWords      int
	packedSignals int
	packedWords   int
}

// assignSlots decides which node values live in the state vector. A node
// needs a slot when its value crosses a partition boundary, is register
// state, or is testbench-visible; everything else stays in kernel temps
// ("hardcoded" locals, as in ESSENT's generated code).
func (cc *compiler) assignSlots() {
	c := cc.c
	n := c.NumNodes()
	part := cc.dr.Part.Assign

	cross := make([]bool, n)
	for v := 0; v < n; v++ {
		for _, a := range c.Args[v] {
			if part[a] != part[v] {
				cross[a] = true
			}
		}
	}

	cc.slotOf = make([]int32, n)
	for i := range cc.slotOf {
		cc.slotOf[i] = -1
	}
	cc.regNextSlot = map[graph.NodeID]int32{}
	cc.regEnSlot = map[graph.NodeID]int32{}
	cc.wpSlot = map[graph.NodeID][3]int32{}

	alloc := func() int32 {
		s := int32(cc.numSlots)
		cc.numSlots++
		return s
	}

	elig := cc.packEligible(cross)
	for v := 0; v < n; v++ {
		op := c.Ops[v]
		switch {
		case op == circuit.OpInput:
			cc.slotOf[v] = alloc()
			cc.inputs = append(cc.inputs, PortSpec{Name: c.Names[v], Slot: cc.slotOf[v], Width: c.Width[v]})
		case op == circuit.OpOutput:
			cc.slotOf[v] = alloc()
			cc.outputs = append(cc.outputs, PortSpec{Name: c.Names[v], Slot: cc.slotOf[v], Width: c.Width[v]})
		case op.IsState():
			cur, next := alloc(), alloc()
			cc.slotOf[v] = cur
			cc.regNextSlot[graph.NodeID(v)] = next
			spec := RegSpec{Cur: cur, Next: next, En: -1, Width: c.Width[v], Reset: c.Vals[v]}
			if op == circuit.OpRegEn {
				en := alloc()
				cc.regEnSlot[graph.NodeID(v)] = en
				spec.En = en
			}
			cc.regs = append(cc.regs, spec)
		case op == circuit.OpMemWrite:
			s := [3]int32{alloc(), alloc(), alloc()}
			cc.wpSlot[graph.NodeID(v)] = s
			cc.writePorts = append(cc.writePorts, WritePortSpec{
				Mem: c.MemOf[v], Addr: s[0], Data: s[1], En: s[2],
			})
		case cross[v]:
			if elig != nil && elig[v] {
				continue // packed: allocated below, after every full word
			}
			cc.slotOf[v] = alloc()
		}
	}

	// Phase 2: packed 1-bit slots. Logical slot numbers continue past the
	// unpacked range, so slot s < numUnpacked keeps its identity mapping
	// (word == slot) and every packed slot resolves through SlotWord /
	// SlotBit. Bits are grouped by PRODUCING partition and each partition
	// starts a fresh word: partitions are the unit of parallel execution
	// (ParallelEngine) and of batch-lane dirty tracking, so two partitions
	// never read-modify-write the same state word concurrently.
	numUnpacked := cc.numSlots
	type wordBit struct {
		word int32
		bit  int8
	}
	var packed []wordBit
	if elig != nil {
		cc.packedNode = make([]bool, n)
		for pid := 0; pid < cc.dr.Part.NumParts; pid++ {
			bit := 64
			var word int32
			for _, v := range cc.dr.Members[pid] {
				if !elig[v] {
					continue
				}
				if bit == 64 {
					word = int32(numUnpacked + cc.packedWords)
					cc.packedWords++
					bit = 0
				}
				cc.slotOf[v] = alloc()
				cc.packedNode[v] = true
				cc.packedSignals++
				packed = append(packed, wordBit{word, int8(bit)})
				bit++
			}
		}
	}
	if cc.packedSignals == 0 {
		cc.packedNode = nil
		cc.numWords = cc.numSlots
		return
	}
	cc.numWords = numUnpacked + cc.packedWords
	cc.slotWord = make([]int32, cc.numSlots)
	cc.slotBit = make([]int8, cc.numSlots)
	for s := 0; s < numUnpacked; s++ {
		cc.slotWord[s] = int32(s)
		cc.slotBit[s] = -1
	}
	for i, wb := range packed {
		cc.slotWord[numUnpacked+i] = wb.word
		cc.slotBit[numUnpacked+i] = wb.bit
	}
}

// packEligible decides which nodes pack into shared 1-bit state words: a
// node is a candidate when it would otherwise take a plain cross-boundary
// value slot (not a port, register, or write-port staging slot) and is
// exactly one bit wide. Candidates are then forced to AGREE across every
// coarse dedup class: partitions of one class must compile to identical
// code, so corresponding members — and the corresponding ARGUMENTS their
// loads come from — must either all pack or all stay unpacked. That
// correspondence is transitive across classes, so it is resolved with a
// union-find whose components take the AND of their members' eligibility.
// Returns nil when packing is off or nothing qualifies.
func (cc *compiler) packEligible(cross []bool) []bool {
	if !cc.packing {
		return nil
	}
	c := cc.c
	n := c.NumNodes()
	elig := make([]bool, n)
	any := false
	for v := 0; v < n; v++ {
		op := c.Ops[v]
		if cross[v] && c.Width[v] == 1 && op != circuit.OpInput &&
			op != circuit.OpOutput && !op.IsState() && op != circuit.OpMemWrite {
			elig[v] = true
			any = true
		}
	}
	if !any {
		return nil
	}

	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b graph.NodeID) {
		ra, rb := find(int32(a)), find(int32(b))
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, parts := range cc.classes {
		tmpl := cc.dr.Members[parts[0]]
		for _, pid := range parts[1:] {
			m := cc.dr.Members[pid]
			if len(m) != len(tmpl) {
				return nil // malformed class; packing is only an optimization
			}
			for i := range tmpl {
				union(tmpl[i], m[i])
				at, am := c.Args[tmpl[i]], c.Args[m[i]]
				if len(at) != len(am) {
					return nil
				}
				for j := range at {
					union(at[j], am[j])
				}
			}
		}
	}
	bad := make([]bool, n)
	for v := 0; v < n; v++ {
		if !elig[v] {
			bad[find(int32(v))] = true
		}
	}
	any = false
	for v := 0; v < n; v++ {
		if bad[find(int32(v))] {
			elig[v] = false
		} else if elig[v] {
			any = true
		}
	}
	if !any {
		return nil
	}
	return elig
}

// resolveRef maps an abstract slot reference to its concrete slot.
func (cc *compiler) resolveRef(r slotRef) int32 {
	switch r.kind {
	case refValue:
		return cc.slotOf[r.node]
	case refRegNext:
		return cc.regNextSlot[r.node]
	case refRegEn:
		return cc.regEnSlot[r.node]
	case refWPAddr:
		return cc.wpSlot[r.node][0]
	case refWPData:
		return cc.wpSlot[r.node][1]
	case refWPEn:
		return cc.wpSlot[r.node][2]
	}
	panic("codegen: unknown ref kind")
}

// isPacked reports whether node v's value slot is a packed 1-bit slot.
func (cc *compiler) isPacked(v graph.NodeID) bool {
	return cc.packedNode != nil && cc.packedNode[v]
}

// classParts lists each shared class's partitions in ascending partition
// ID, indexed by class ID (dedup numbers classes densely, so none is
// empty). A class's first partition is its template.
func classParts(dr *dedup.Result) [][]int32 {
	classes := make([][]int32, dr.NumClasses)
	for pid, cl := range dr.Class {
		if cl >= 0 {
			classes[cl] = append(classes[cl], int32(pid))
		}
	}
	return classes
}

// lowerUnits lowers every direct partition and every class template, and
// derives each other member of a class (a twin) from its template: the
// twin shares the template's code and gets its tables by positional
// correspondence. A twin that fails the correspondence check is an
// error, because its code would differ from the template's.
func (cc *compiler) lowerUnits() ([]*unit, error) {
	dr := cc.dr
	units := make([]*unit, dr.Part.NumParts)
	for pid := range units {
		if cl := dr.Class[pid]; cl >= 0 && cc.classes[cl][0] != int32(pid) {
			continue
		}
		u, err := cc.compilePartition(dr.Members[pid], int32(pid))
		if err != nil {
			return nil, err
		}
		units[pid] = u
	}
	nodes, mems := newBimap(cc.c.NumNodes()), newBimap(len(cc.c.Mems))
	for cl, parts := range cc.classes {
		for _, pid := range parts[1:] {
			u := cc.deriveTwin(units[parts[0]], dr.Members[parts[0]], dr.Members[pid], &nodes, &mems)
			if u == nil {
				return nil, fmt.Errorf("codegen: class %d partitions disagree structurally", cl)
			}
			units[pid] = u
		}
	}
	return units, nil
}

// bimap is a one-to-one map from a template's nodes (or memories) to a
// twin's, -1 where unpaired. reset clears only the pairs made since the
// last reset, so one bimap serves every twin.
type bimap struct{ fwd, rev, keys []int32 }

func newBimap(n int) bimap {
	b := bimap{fwd: make([]int32, n), rev: make([]int32, n)}
	for i := range b.fwd {
		b.fwd[i], b.rev[i] = -1, -1
	}
	return b
}

// pair records t -> w, reporting false when either side is already
// paired with something else.
func (b *bimap) pair(t, w int32) bool {
	if b.fwd[t] == w {
		return true
	}
	if b.fwd[t] >= 0 || b.rev[w] >= 0 {
		return false
	}
	b.fwd[t], b.rev[w] = w, t
	b.keys = append(b.keys, t)
	return true
}

func (b *bimap) reset() {
	for _, t := range b.keys {
		b.rev[b.fwd[t]], b.fwd[t] = -1, -1
	}
	b.keys = b.keys[:0]
}

// deriveTwin builds the unit compilePartition would produce for the
// members wm from tmpl, the unit lowered for the template members tm,
// pairing nodes in nodes and read memories in mems. Member j of the twin
// corresponds to member j of the template, and argument k of a member to
// argument k of its counterpart. It checks
// every input lowering reads: op, constant and arity of members; width,
// slot-ness and packing of members and arguments; a one-to-one node map
// (two template nodes sharing one twin node would merge ext entries);
// and a one-to-one map of read memories. It returns nil on a mismatch.
func (cc *compiler) deriveTwin(tmpl *unit, tm, wm []graph.NodeID, nodes, mems *bimap) *unit {
	defer nodes.reset()
	defer mems.reset()
	c := cc.c
	if len(tm) != len(wm) {
		return nil
	}
	same := func(t, w graph.NodeID) bool {
		return nodes.pair(t, w) && c.Width[t] == c.Width[w] &&
			(cc.slotOf[t] >= 0) == (cc.slotOf[w] >= 0) && cc.isPacked(t) == cc.isPacked(w)
	}
	for j, t := range tm {
		w := wm[j]
		at, aw := c.Args[t], c.Args[w]
		if c.Ops[t] != c.Ops[w] || c.Vals[t] != c.Vals[w] || len(at) != len(aw) || !same(t, w) {
			return nil
		}
		for k := range at {
			if !same(at[k], aw[k]) {
				return nil
			}
		}
		if c.Ops[t] == circuit.OpMemRead && !mems.pair(c.MemOf[t], c.MemOf[w]) {
			return nil
		}
	}

	refs := func(rs []slotRef) []slotRef {
		return mapped(rs, func(r slotRef) slotRef { return slotRef{node: nodes.fwd[r.node], kind: r.kind} })
	}
	memIDs := func(ms []int32) []int32 {
		return mapped(ms, func(gm int32) int32 { return mems.fwd[gm] })
	}
	u := &unit{
		code:     tmpl.code,
		numTemps: tmpl.numTemps,
		ext:      refs(tmpl.ext),
		mems:     memIDs(tmpl.mems),
		reads:    refs(tmpl.reads),
		writes:   refs(tmpl.writes),
		readMems: memIDs(tmpl.readMems),
	}
	if u.ext != nil {
		u.extSlots = make([]int32, len(u.ext))
		for i, r := range u.ext {
			u.extSlots[i] = cc.resolveRef(r)
		}
	}
	return u
}

// mapped applies f to every element of s; nil stays nil, as in units
// compilePartition builds.
func mapped[T any](s []T, f func(T) T) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s))
	for i, x := range s {
		out[i] = f(x)
	}
	return out
}

// compilePartition lowers one partition into external (position-
// independent) form. Members must be in canonical order: partitions of
// one class compile to byte-identical code, differing only in the
// resolved ext tables.
func (cc *compiler) compilePartition(members []graph.NodeID, pid int32) (*unit, error) {
	c := cc.c
	u := &unit{}

	memberIdx := make(map[graph.NodeID]int32, len(members))
	for i, v := range members {
		memberIdx[v] = int32(i)
	}

	// Local topological order over intra-partition combinational edges,
	// tie-broken by canonical member index so class twins lower
	// identically.
	order, err := localTopo(c, members, memberIdx)
	if err != nil {
		return nil, fmt.Errorf("codegen: partition %d: %w", pid, err)
	}

	tempOf := make(map[graph.NodeID]int32) // member comb results
	extIdx := make(map[slotRef]int32)      // ext table positions
	loaded := make(map[slotRef]int32)      // memoized external loads
	memIdx := make(map[int32]int32)        // global mem -> local table idx
	nextTemp := int32(0)

	newTemp := func() int32 { t := nextTemp; nextTemp++; return t }

	extOf := func(r slotRef) int32 {
		if i, ok := extIdx[r]; ok {
			return i
		}
		i := int32(len(u.ext))
		extIdx[r] = i
		u.ext = append(u.ext, r)
		u.extSlots = append(u.extSlots, cc.resolveRef(r))
		return i
	}

	loadRef := func(r slotRef, width uint8) int32 {
		if t, ok := loaded[r]; ok {
			return t
		}
		t := newTemp()
		op := KLoadExt
		if r.kind == refValue && cc.isPacked(r.node) {
			op = KLoadBitExt
		}
		u.code = append(u.code, Instr{Op: op, Dst: t, A: extOf(r), Width: width})
		u.reads = append(u.reads, r)
		loaded[r] = t
		return t
	}

	// val returns the temp holding node a's value from inside this
	// partition: a compiled member temp, a register state load, or an
	// external slot load.
	val := func(a graph.NodeID) (int32, error) {
		if t, ok := tempOf[a]; ok {
			return t, nil
		}
		if _, isMember := memberIdx[a]; isMember && !c.Ops[a].IsState() && c.Ops[a] != circuit.OpInput {
			return 0, fmt.Errorf("codegen: member %d (%s) used before lowering", a, c.Ops[a])
		}
		// Register state, inputs, and external values all load from the
		// producer's value slot.
		if cc.slotOf[a] < 0 {
			return 0, fmt.Errorf("codegen: node %d (%s) has no slot but is read across partitions", a, c.Ops[a])
		}
		t := loadRef(slotRef{node: a, kind: refValue}, c.Width[a])
		tempOf[a] = t
		return t, nil
	}

	storeRef := func(r slotRef, t int32, width uint8) {
		op := KStoreExt
		if r.kind == refValue && cc.isPacked(r.node) {
			op = KStoreBitExt
		}
		u.code = append(u.code, Instr{Op: op, Dst: extOf(r), A: t, Width: width})
		u.writes = append(u.writes, r)
	}

	for _, v := range order {
		op := c.Ops[v]
		w := c.Width[v]
		args := c.Args[v]
		switch {
		case op == circuit.OpInput:
			// Value arrives via the slot; nothing to compute.
			continue

		case op == circuit.OpConst:
			t := newTemp()
			u.code = append(u.code, Instr{Op: KConst, Dst: t, Width: w, Val: c.Vals[v]})
			tempOf[v] = t

		case op == circuit.OpOutput:
			t, err := val(args[0])
			if err != nil {
				return nil, err
			}
			storeRef(slotRef{node: v, kind: refValue}, t, w)
			continue

		case op.IsState():
			t, err := val(args[0])
			if err != nil {
				return nil, err
			}
			storeRef(slotRef{node: v, kind: refRegNext}, t, w)
			if op == circuit.OpRegEn {
				en, err := val(args[1])
				if err != nil {
					return nil, err
				}
				storeRef(slotRef{node: v, kind: refRegEn}, en, 1)
			}
			continue

		case op == circuit.OpMemWrite:
			kinds := [3]refKind{refWPAddr, refWPData, refWPEn}
			for i := 0; i < 3; i++ {
				t, err := val(args[i])
				if err != nil {
					return nil, err
				}
				storeRef(slotRef{node: v, kind: kinds[i]}, t, c.Width[args[i]])
			}
			continue

		case op == circuit.OpMemRead:
			addr, err := val(args[0])
			if err != nil {
				return nil, err
			}
			gm := c.MemOf[v]
			mi, ok := memIdx[gm]
			if !ok {
				mi = int32(len(u.mems))
				memIdx[gm] = mi
				u.mems = append(u.mems, gm)
				u.readMems = append(u.readMems, gm)
			}
			t := newTemp()
			u.code = append(u.code, Instr{Op: KMemRead, Dst: t, A: addr, B: mi, Width: w})
			tempOf[v] = t

		case op == circuit.OpNot:
			a, err := val(args[0])
			if err != nil {
				return nil, err
			}
			t := newTemp()
			u.code = append(u.code, Instr{Op: KNot, Dst: t, A: a, Width: w})
			tempOf[v] = t

		case op == circuit.OpBits:
			a, err := val(args[0])
			if err != nil {
				return nil, err
			}
			t := newTemp()
			u.code = append(u.code, Instr{Op: KBits, Dst: t, A: a, Width: w, Val: c.Vals[v]})
			tempOf[v] = t

		case op == circuit.OpMux:
			s, err := val(args[0])
			if err != nil {
				return nil, err
			}
			a, err := val(args[1])
			if err != nil {
				return nil, err
			}
			b, err := val(args[2])
			if err != nil {
				return nil, err
			}
			t := newTemp()
			u.code = append(u.code, Instr{Op: KMux, Dst: t, A: s, B: a, C: b, Width: w})
			tempOf[v] = t

		default: // binary ops
			a, err := val(args[0])
			if err != nil {
				return nil, err
			}
			b, err := val(args[1])
			if err != nil {
				return nil, err
			}
			t := newTemp()
			in := Instr{Op: KBin, Dst: t, A: a, B: b, BinOp: op, Width: w}
			if op == circuit.OpCat {
				in.Val = uint64(c.Width[args[1]])
			}
			u.code = append(u.code, in)
			tempOf[v] = t
		}

		// Publish the value if any other partition (or the testbench)
		// reads it.
		if cc.slotOf[v] >= 0 && op != circuit.OpInput {
			storeRef(slotRef{node: v, kind: refValue}, tempOf[v], w)
		}
	}
	u.numTemps = int(nextTemp)
	return u, nil
}

// localTopo orders the partition's members so every intra-partition
// combinational producer precedes its consumers; ties break by canonical
// member position, making class twins lower identically.
func localTopo(c *circuit.Circuit, members []graph.NodeID, memberIdx map[graph.NodeID]int32) ([]graph.NodeID, error) {
	n := len(members)
	indeg := make([]int, n)
	succs := make([][]int32, n)
	for i, v := range members {
		for _, a := range c.Args[v] {
			j, internal := memberIdx[a]
			if !internal || c.Ops[a].IsState() || c.Ops[a] == circuit.OpInput {
				// State reads and inputs come from slots; no ordering.
				continue
			}
			succs[j] = append(succs[j], int32(i))
			indeg[i]++
		}
	}
	// Min-heap by canonical index for determinism.
	heap := make([]int32, 0, n)
	push := func(x int32) {
		heap = append(heap, x)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() int32 {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(heap) && heap[l] < heap[m] {
				m = l
			}
			if r < len(heap) && heap[r] < heap[m] {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			push(int32(i))
		}
	}
	order := make([]graph.NodeID, 0, n)
	for len(heap) > 0 {
		i := pop()
		order = append(order, members[i])
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				push(s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("internal combinational cycle among %d members", n)
	}
	return order, nil
}
