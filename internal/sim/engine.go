package sim

import (
	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
)

// Engine executes a compiled Program one full cycle at a time. With
// activity skipping enabled it reproduces ESSENT's behavior: a partition
// is only re-evaluated when one of its inputs changed (a slot it reads was
// overwritten with a new value, a register it reads committed a change, a
// memory it reads was written, or a testbench input moved). With activity
// skipping disabled it models Verilator-style unconditional full-cycle
// evaluation.
//
// Engine is a one-lane BatchEngine: it owns no state of its own, only the
// plain-field view of lane 0's counters and the instrumentation hooks.
type Engine struct {
	b *BatchEngine

	// Cycles counts executed steps since reset.
	Cycles int64
	// ActsExecuted / ActsSkipped count activations run vs elided.
	ActsExecuted int64
	ActsSkipped  int64
	// DynInstrs accumulates the modeled native instruction count of all
	// executed activations (Table 4's "Instructions").
	DynInstrs int64

	// OnActivation, when set, observes every *executed* activation in
	// schedule order; the host performance model hooks in here. While
	// either hook is set every activation runs alone, never through the
	// class gear, so the stream keeps schedule order.
	OnActivation func(actIdx int32)
	// OnMemAccess, when set, observes memory-port traffic (reads during
	// evaluation, committed writes) with concrete addresses for the data-
	// cache model.
	OnMemAccess func(mem int32, addr uint64, write bool)
}

// New builds an engine. activity enables ESSENT-style partition skipping.
func New(p *codegen.Program, activity bool) *Engine {
	b, err := NewBatch(p, activity, 1)
	if err != nil {
		panic(err) // unreachable: one lane is always in range
	}
	return &Engine{b: b}
}

// Program returns the program being executed.
func (e *Engine) Program() *codegen.Program { return e.b.p }

// syncCounters copies lane 0's counters into the exported fields.
func (e *Engine) syncCounters() {
	b := e.b
	e.Cycles, e.ActsExecuted, e.ActsSkipped, e.DynInstrs = b.Cycles[0], b.ActsExecuted[0], b.ActsSkipped[0], b.DynInstrs[0]
}

// Reset zeroes all state, restores register reset values, and marks every
// partition dirty so the first cycle evaluates everything.
func (e *Engine) Reset() {
	e.b.Reset()
	e.syncCounters()
}

// InputHandle is a pre-resolved named input: the slot and width mask are
// looked up once, so per-cycle drive loops stop hashing strings. A handle
// is valid for any engine executing the same Program (scalar or batch);
// the zero value is a no-op handle.
type InputHandle struct {
	slot int32
	mask uint64
	ok   bool
}

// ResolveInput looks up a named input of a Program once, for use with
// SetInputBySlot on any engine running that Program.
func ResolveInput(p *codegen.Program, name string) (InputHandle, bool) {
	for _, in := range p.Inputs {
		if in.Name == name {
			return InputHandle{slot: in.Slot, mask: circuit.Mask(in.Width), ok: true}, true
		}
	}
	return InputHandle{}, false
}

// InputHandle resolves a named input of this engine's program.
func (e *Engine) InputHandle(name string) (InputHandle, bool) { return e.b.InputHandle(name) }

// SetInput drives a named input, dirtying its consumers if it changed.
func (e *Engine) SetInput(name string, v uint64) error { return e.b.SetInput(0, name, v) }

// SetInputBySlot drives a pre-resolved input — the hot-path form of
// SetInput (no name lookup, no mask computation). Invalid handles no-op.
func (e *Engine) SetInputBySlot(h InputHandle, v uint64) { e.b.SetLaneInput(0, h, v) }

// Output reads a named output as of the last Step.
func (e *Engine) Output(name string) (uint64, error) { return e.b.Output(0, name) }

// Slot reads a raw state slot (tests and probes), resolving packed 1-bit
// slots through the program's word/bit map.
func (e *Engine) Slot(s int32) uint64 { return e.b.Slot(0, s) }

// Step evaluates one full cycle: the scheduled activations (skipping
// clean partitions when activity mode is on), then register and memory
// commits.
func (e *Engine) Step() {
	e.b.onAct, e.b.onMem = e.OnActivation, e.OnMemAccess
	e.b.Step()
	e.syncCounters()
}
