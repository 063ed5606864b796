package circuit

import "fmt"

// Builder constructs a Circuit programmatically. It is used by the FIRRTL
// elaborator, the design generators, and tests. Methods panic on misuse
// (wrong arity, width 0) because construction errors are programming
// errors, not runtime conditions; Finish runs the full validator and
// returns any semantic error (e.g. a combinational loop).
type Builder struct {
	c       *Circuit
	curInst int32
}

// NewBuilder starts a circuit with the given top-module name. The builder
// begins inside the top instance.
func NewBuilder(name string) *Builder {
	return &Builder{
		c: &Circuit{
			Name:      name,
			Instances: []Instance{{Name: name, Module: name, Parent: -1}},
		},
	}
}

// PushInstance enters a new child instance of the named module; subsequent
// nodes belong to it. It returns the instance index.
func (b *Builder) PushInstance(instName, module string) int32 {
	parent := b.curInst
	full := b.c.Instances[parent].Name + "." + instName
	b.c.Instances = append(b.c.Instances, Instance{Name: full, Module: module, Parent: parent})
	b.curInst = int32(len(b.c.Instances) - 1)
	return b.curInst
}

// PopInstance returns to the parent instance.
func (b *Builder) PopInstance() {
	p := b.c.Instances[b.curInst].Parent
	if p < 0 {
		panic("circuit: PopInstance on top instance")
	}
	b.curInst = p
}

// SetInstance switches construction to an existing instance by index. It
// exists for elaborators that create nodes lazily, out of strict
// hierarchical order; ordinary clients should use Push/PopInstance.
func (b *Builder) SetInstance(i int32) {
	if i < 0 || int(i) >= len(b.c.Instances) {
		panic("circuit: SetInstance out of range")
	}
	b.curInst = i
}

func (b *Builder) add(op Op, width uint8, name string, val uint64, mem int32, args ...NodeID) NodeID {
	if got, want := len(args), op.Arity(); got != want {
		panic(fmt.Sprintf("circuit: %s needs %d args, got %d", op, want, got))
	}
	c := b.c
	id := NodeID(len(c.Ops))
	if len(c.Ops) == cap(c.Ops) {
		// Grow all seven per-node slices in one doubling step, so the
		// appends below never re-copy them one by one at Go's own growth
		// steps. Finish trims them to length.
		c.resize(max(2*cap(c.Ops), 1024))
	}
	c.Ops = append(c.Ops, op)
	c.Width = append(c.Width, width)
	c.Args = append(c.Args, args)
	c.Vals = append(c.Vals, val)
	c.Names = append(c.Names, name)
	c.Inst = append(c.Inst, b.curInst)
	c.MemOf = append(c.MemOf, mem)
	return id
}

// resize gives each per-node slice capacity n, keeping its length.
func (c *Circuit) resize(n int) {
	c.Ops = resized(c.Ops, n)
	c.Width = resized(c.Width, n)
	c.Args = resized(c.Args, n)
	c.Vals = resized(c.Vals, n)
	c.Names = resized(c.Names, n)
	c.Inst = resized(c.Inst, n)
	c.MemOf = resized(c.MemOf, n)
}

// resized copies s into a new slice of the same length and capacity n.
func resized[E any](s []E, n int) []E {
	if cap(s) == n {
		return s
	}
	r := make([]E, len(s), n)
	copy(r, s)
	return r
}

// Const adds a literal of the given width.
func (b *Builder) Const(width uint8, value uint64) NodeID {
	return b.add(OpConst, width, "", value&Mask(width), -1)
}

// Input adds a named top-level input.
func (b *Builder) Input(name string, width uint8) NodeID {
	return b.add(OpInput, width, name, 0, -1)
}

// Output adds a named top-level output driven by src.
func (b *Builder) Output(name string, src NodeID) NodeID {
	return b.add(OpOutput, b.c.Width[src], name, 0, -1, src)
}

// Binary adds a two-operand combinational node. Result width follows the
// op: comparisons are 1 bit, Cat is the sum of operand widths, everything
// else is the wider operand.
func (b *Builder) Binary(op Op, x, y NodeID) NodeID {
	var w uint8
	switch op {
	case OpEq, OpNeq, OpLt, OpGeq:
		w = 1
	case OpCat:
		w = b.c.Width[x] + b.c.Width[y]
		if w > 64 {
			panic("circuit: cat result exceeds 64 bits")
		}
	case OpAnd, OpOr, OpXor, OpAdd, OpSub, OpMul, OpShl, OpShr:
		w = b.c.Width[x]
		if b.c.Width[y] > w {
			w = b.c.Width[y]
		}
	default:
		panic(fmt.Sprintf("circuit: Binary called with %s", op))
	}
	return b.add(op, w, "", 0, -1, x, y)
}

// Not adds a bitwise complement of x at x's width.
func (b *Builder) Not(x NodeID) NodeID {
	return b.add(OpNot, b.c.Width[x], "", 0, -1, x)
}

// Mux adds a 2:1 multiplexer: sel ? then : els.
func (b *Builder) Mux(sel, then, els NodeID) NodeID {
	w := b.c.Width[then]
	if b.c.Width[els] > w {
		w = b.c.Width[els]
	}
	return b.add(OpMux, w, "", 0, -1, sel, then, els)
}

// Bits extracts bits [lo, lo+width-1] from x.
func (b *Builder) Bits(x NodeID, lo, width uint8) NodeID {
	if uint(lo)+uint(width) > 64 {
		panic("circuit: bits range exceeds 64")
	}
	return b.add(OpBits, width, "", uint64(lo), -1, x)
}

// Reg adds a register with a reset value whose next state is filled in
// later with SetRegNext (registers usually precede their next-value logic
// textually). The placeholder argument is the register itself, which keeps
// state if never connected.
func (b *Builder) Reg(name string, width uint8, resetVal uint64) NodeID {
	id := b.add(OpReg, width, name, resetVal&Mask(width), -1, 0)
	b.c.Args[id][0] = id // self-loop placeholder: hold current value
	return id
}

// RegEn adds an enabled register; next/en are filled by SetRegNextEn.
func (b *Builder) RegEn(name string, width uint8, resetVal uint64) NodeID {
	id := b.add(OpRegEn, width, name, resetVal&Mask(width), -1, 0, 0)
	b.c.Args[id][0] = id
	b.c.Args[id][1] = id
	return id
}

// SetRegNext connects the next-state producer of a register.
func (b *Builder) SetRegNext(reg, next NodeID) {
	if !b.c.Ops[reg].IsState() {
		panic("circuit: SetRegNext on non-register")
	}
	b.c.Args[reg][0] = next
}

// SetRegNextEn connects the next-state producer and enable of an OpRegEn.
func (b *Builder) SetRegNextEn(reg, next, en NodeID) {
	if b.c.Ops[reg] != OpRegEn {
		panic("circuit: SetRegNextEn on non-regen")
	}
	b.c.Args[reg][0] = next
	b.c.Args[reg][1] = en
}

// Memory declares a memory block and returns its index.
func (b *Builder) Memory(name string, depth int, width uint8) int32 {
	b.c.Mems = append(b.c.Mems, Memory{Name: name, Depth: depth, Width: width})
	return int32(len(b.c.Mems) - 1)
}

// MemRead adds a combinational read port on memory mem at addr.
func (b *Builder) MemRead(mem int32, addr NodeID) NodeID {
	return b.add(OpMemRead, b.c.Mems[mem].Width, "", 0, mem, addr)
}

// MemWrite adds a write port on memory mem; the write lands at the cycle
// boundary when en is nonzero.
func (b *Builder) MemWrite(mem int32, addr, data, en NodeID) NodeID {
	return b.add(OpMemWrite, 0, "", 0, mem, addr, data, en)
}

// Name attaches a flattened signal name to an existing node (useful for
// probes).
func (b *Builder) Name(id NodeID, name string) { b.c.Names[id] = name }

// NameIfAnon names a node only if it is still anonymous, so a shared
// subexpression keeps its first name.
func (b *Builder) NameIfAnon(id NodeID, name string) {
	if b.c.Names[id] == "" {
		b.c.Names[id] = name
	}
}

// InstanceName returns the hierarchical name of instance i.
func (b *Builder) InstanceName(i int32) string { return b.c.Instances[i].Name }

// Width returns the declared width of a node (handy while building).
func (b *Builder) Width(id NodeID) uint8 { return b.c.Width[id] }

// Finish validates and returns the circuit. The builder must not be used
// afterwards.
func (b *Builder) Finish() (*Circuit, error) {
	if b.curInst != 0 {
		return nil, fmt.Errorf("circuit %q: Finish inside instance %q", b.c.Name, b.c.Instances[b.curInst].Name)
	}
	b.c.resize(len(b.c.Ops)) // drop the growth slack
	if err := b.c.Validate(); err != nil {
		return nil, err
	}
	return b.c, nil
}

// MustFinish is Finish for tests and generators with known-good structure.
func (b *Builder) MustFinish() *Circuit {
	c, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return c
}
