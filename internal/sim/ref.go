package sim

import (
	"fmt"

	"dedupsim/internal/circuit"
	"dedupsim/internal/graph"
)

// Ref is the golden-model interpreter: it evaluates every node of the
// circuit each cycle in topological order, with two-phase register and
// memory commits. It is deliberately simple — correctness oracle first —
// and it also measures signal activity, which both the activity-aware
// engine statistics and the event-driven (commercial-style) performance
// model build on.
type Ref struct {
	c      *circuit.Circuit
	order  []graph.NodeID
	val    []uint64
	prev   []uint64
	mems   [][]uint64
	outDeg []int32

	nextBuf []uint64 // reused register next-value buffer

	// Cycles counts executed steps since reset.
	Cycles int64
	// ChangedNodes accumulates, per cycle, the number of nodes whose
	// value changed — the design's raw activity.
	ChangedNodes int64
	// EventOps accumulates modeled event-driven work: every changed node
	// wakes its consumers (paper Section 2.1's interpreter view).
	EventOps int64
}

// NewRef builds a reference simulator for the circuit.
func NewRef(c *circuit.Circuit) (*Ref, error) {
	order, err := c.SchedGraph().TopoSort()
	if err != nil {
		return nil, fmt.Errorf("sim: reference: %w", err)
	}
	r := &Ref{
		c:       c,
		order:   order,
		val:     make([]uint64, c.NumNodes()),
		prev:    make([]uint64, c.NumNodes()),
		nextBuf: make([]uint64, c.NumNodes()),
		outDeg:  make([]int32, c.NumNodes()),
	}
	for v := range c.Args {
		for _, a := range c.Args[v] {
			r.outDeg[a]++
		}
	}
	r.mems = make([][]uint64, len(c.Mems))
	for i, m := range c.Mems {
		r.mems[i] = make([]uint64, m.Depth)
	}
	r.Reset()
	return r, nil
}

// Reset restores registers to their reset values, zeroes memories and
// inputs, and clears statistics.
func (r *Ref) Reset() {
	for v := range r.val {
		r.val[v] = 0
	}
	for v, op := range r.c.Ops {
		// Vals is only a value for registers (reset) and constants; for
		// OpBits it is the low bit index and must not leak into val.
		if op.IsState() || op == circuit.OpConst {
			r.val[v] = r.c.Vals[v]
		}
	}
	for _, m := range r.mems {
		for i := range m {
			m[i] = 0
		}
	}
	copy(r.prev, r.val)
	r.Cycles, r.ChangedNodes, r.EventOps = 0, 0, 0
}

// SetInput drives a named top-level input.
func (r *Ref) SetInput(name string, v uint64) error {
	id, ok := r.c.InputByName(name)
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	r.val[id] = v & circuit.Mask(r.c.Width[id])
	return nil
}

// Output reads a named top-level output (value as of the last Step).
func (r *Ref) Output(name string) (uint64, error) {
	id, ok := r.c.OutputByName(name)
	if !ok {
		return 0, fmt.Errorf("sim: no output %q", name)
	}
	return r.val[id], nil
}

// Value reads any node's current value (registers: current state).
func (r *Ref) Value(id graph.NodeID) uint64 { return r.val[id] }

// Step evaluates one full cycle.
func (r *Ref) Step() {
	c := r.c
	// Combinational phase in topological order.
	for _, v := range r.order {
		op := c.Ops[v]
		if !op.IsComb() && op != circuit.OpOutput {
			continue
		}
		args := c.Args[v]
		w := c.Width[v]
		switch op {
		case circuit.OpOutput:
			r.val[v] = r.val[args[0]]
		case circuit.OpNot:
			r.val[v] = ^r.val[args[0]] & circuit.Mask(w)
		case circuit.OpMux:
			if r.val[args[0]] != 0 {
				r.val[v] = r.val[args[1]]
			} else {
				r.val[v] = r.val[args[2]]
			}
			r.val[v] &= circuit.Mask(w)
		case circuit.OpBits:
			r.val[v] = (r.val[args[0]] >> c.Vals[v]) & circuit.Mask(w)
		case circuit.OpMemRead:
			m := r.mems[c.MemOf[v]]
			r.val[v] = m[r.val[args[0]]%uint64(len(m))] & circuit.Mask(w)
		default:
			r.val[v] = EvalBin(op, w, r.val[args[0]], r.val[args[1]], c.Width[args[1]])
		}
	}
	// Commit phase. Memory writes land first: their addr/data/enable
	// arguments may reference registers directly and must observe the
	// pre-commit (current-cycle) state. Then registers commit two-phase.
	for v, op := range c.Ops {
		if op != circuit.OpMemWrite {
			continue
		}
		args := c.Args[v]
		if r.val[args[2]] != 0 {
			m := r.mems[c.MemOf[v]]
			m[r.val[args[0]]%uint64(len(m))] = r.val[args[1]] & circuit.Mask(r.c.Mems[c.MemOf[v]].Width)
		}
	}
	for v, op := range c.Ops {
		if op.IsState() {
			next := r.val[c.Args[v][0]]
			if op == circuit.OpRegEn && r.val[c.Args[v][1]] == 0 {
				next = r.val[v] // hold: enable sampled pre-commit
			}
			r.nextBuf[v] = next
		}
	}
	for v, op := range c.Ops {
		if op.IsState() {
			r.val[v] = r.nextBuf[v] & circuit.Mask(c.Width[v])
		}
	}
	// Activity accounting.
	changed := int64(0)
	events := int64(0)
	for v := range r.val {
		if r.val[v] != r.prev[v] {
			changed++
			// An event-driven simulator re-evaluates every consumer of a
			// changed signal, plus queue management per event.
			events += int64(r.outDeg[v]) + 2
			r.prev[v] = r.val[v]
		}
	}
	r.Cycles++
	r.ChangedNodes += changed
	r.EventOps += events + 8 // scheduler overhead floor per cycle
}

// ActivityRate returns the mean fraction of nodes that change per cycle.
func (r *Ref) ActivityRate() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.ChangedNodes) / float64(r.Cycles) / float64(r.c.NumNodes())
}
