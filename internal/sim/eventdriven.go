package sim

import (
	"fmt"

	"dedupsim/internal/circuit"
	"dedupsim/internal/graph"
)

// EventDriven is a real event-driven simulator: the execution model of
// the paper's "Commercial" baseline (Section 2.1). Instead of evaluating
// the whole design each cycle, it keeps a wavefront of changed signals;
// when a signal changes, every consumer is scheduled for re-evaluation.
// Scheduling is levelized (consumers evaluate in topological-level order)
// so each node evaluates at most once per cycle despite arbitrary event
// arrival order — the LECSIM approach the paper cites.
//
// It is the third independent implementation of the circuit semantics
// (after the compiled Engine and the Ref interpreter) and serves only as
// an equivalence oracle. The Commercial performance numbers do not come
// from here: perfmodel.RecordEvents records sim.Ref's EventOps, and
// perfmodel.RunEventDriven charges them.
type EventDriven struct {
	c      *circuit.Circuit
	levels []int32
	// consumers[v] lists the nodes that re-evaluate when v changes.
	consumers [][]graph.NodeID

	val  []uint64
	mems [][]uint64

	// Levelized wavefront: one bucket of pending nodes per level, plus a
	// membership bitmap so a node enqueues at most once per cycle.
	buckets [][]graph.NodeID
	pending []bool
	// dirty bits per level avoid scanning empty buckets.
	maxLevel int32

	// Sequential elements are always visited at the cycle boundary.
	regs       []graph.NodeID
	nextBuf    []uint64
	writePorts []graph.NodeID
	// memReaders[m] lists the read ports of memory m, woken by writes.
	memReaders [][]graph.NodeID

	// Cycles counts executed steps; Events counts node evaluations — the
	// event-driven simulator's unit of work.
	Cycles int64
	Events int64
}

// NewEventDriven builds an event-driven simulator for the circuit.
func NewEventDriven(c *circuit.Circuit) (*EventDriven, error) {
	g := c.SchedGraph()
	levels, err := g.TopoLevels()
	if err != nil {
		return nil, fmt.Errorf("sim: event-driven: %w", err)
	}
	e := &EventDriven{
		c:         c,
		levels:    levels,
		consumers: make([][]graph.NodeID, c.NumNodes()),
		val:       make([]uint64, c.NumNodes()),
		pending:   make([]bool, c.NumNodes()),
		nextBuf:   make([]uint64, c.NumNodes()),
	}
	for v := 0; v < c.NumNodes(); v++ {
		if levels[v] > e.maxLevel {
			e.maxLevel = levels[v]
		}
		op := c.Ops[v]
		if op.IsState() {
			e.regs = append(e.regs, graph.NodeID(v))
		}
		if op == circuit.OpMemWrite {
			e.writePorts = append(e.writePorts, graph.NodeID(v))
		}
		for _, a := range c.Args[v] {
			// Consumers via ALL argument edges, including register state
			// reads (a register commit must wake its readers next cycle).
			e.consumers[a] = append(e.consumers[a], graph.NodeID(v))
		}
	}
	e.buckets = make([][]graph.NodeID, e.maxLevel+1)
	e.mems = make([][]uint64, len(c.Mems))
	e.memReaders = make([][]graph.NodeID, len(c.Mems))
	for i, m := range c.Mems {
		e.mems[i] = make([]uint64, m.Depth)
	}
	for v := 0; v < c.NumNodes(); v++ {
		if c.Ops[v] == circuit.OpMemRead {
			e.memReaders[c.MemOf[v]] = append(e.memReaders[c.MemOf[v]], graph.NodeID(v))
		}
	}
	e.Reset()
	return e, nil
}

// Reset restores reset values and schedules the entire design once (the
// time-zero event).
func (e *EventDriven) Reset() {
	for v := range e.val {
		e.val[v] = 0
	}
	for v, op := range e.c.Ops {
		if op.IsState() || op == circuit.OpConst {
			e.val[v] = e.c.Vals[v]
		}
	}
	for _, m := range e.mems {
		for i := range m {
			m[i] = 0
		}
	}
	e.Cycles, e.Events = 0, 0
	// Time-zero: everything is an event.
	for v := 0; v < e.c.NumNodes(); v++ {
		e.schedule(graph.NodeID(v))
	}
}

// SetInput drives a named input; a change emits an event to consumers.
func (e *EventDriven) SetInput(name string, v uint64) error {
	id, ok := e.c.InputByName(name)
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	v &= circuit.Mask(e.c.Width[id])
	if e.val[id] != v {
		e.val[id] = v
		e.emit(id)
	}
	return nil
}

// Output reads a named output as of the last Step.
func (e *EventDriven) Output(name string) (uint64, error) {
	id, ok := e.c.OutputByName(name)
	if !ok {
		return 0, fmt.Errorf("sim: no output %q", name)
	}
	return e.val[id], nil
}

// schedule enqueues a node for evaluation this cycle.
func (e *EventDriven) schedule(v graph.NodeID) {
	if e.pending[v] {
		return
	}
	e.pending[v] = true
	lvl := e.levels[v]
	e.buckets[lvl] = append(e.buckets[lvl], v)
}

// emit wakes every consumer of v. Consumers at or below the currently
// evaluating level are state/commit consumers handled at the boundary;
// combinational consumers are always at a strictly higher level, so
// levelized draining evaluates each at most once.
func (e *EventDriven) emit(v graph.NodeID) {
	for _, w := range e.consumers[v] {
		op := e.c.Ops[w]
		if op.IsState() || op == circuit.OpMemWrite {
			// Sequential consumers sample at the commit boundary; they do
			// not join the combinational wavefront.
			continue
		}
		e.schedule(w)
	}
}

// Step runs one cycle: drain the combinational wavefront level by level,
// then commit registers and memory writes, emitting next-cycle events for
// state that changed.
func (e *EventDriven) Step() {
	c := e.c
	for lvl := int32(0); lvl <= e.maxLevel; lvl++ {
		bucket := e.buckets[lvl]
		for i := 0; i < len(bucket); i++ {
			// The bucket may grow while draining only for HIGHER levels;
			// same-level growth is impossible because edges strictly
			// increase level.
			v := bucket[i]
			e.pending[v] = false
			e.Events++
			old := e.val[v]
			e.val[v] = e.eval(v)
			if e.val[v] != old {
				e.emit(v)
			}
		}
		e.buckets[lvl] = bucket[:0]
	}

	// Commit phase: memory writes first (pre-commit register reads), then
	// registers two-phase; changed state emits next-cycle events.
	for _, v := range e.writePorts {
		args := c.Args[v]
		if e.val[args[2]] != 0 {
			m := e.mems[c.MemOf[v]]
			addr := e.val[args[0]] % uint64(len(m))
			data := e.val[args[1]] & circuit.Mask(c.Mems[c.MemOf[v]].Width)
			if m[addr] != data {
				m[addr] = data
				e.Events++
				// Wake the memory's read ports: their value may change.
				for _, r := range e.memReaders[c.MemOf[v]] {
					e.schedule(r)
				}
			}
		}
	}
	for _, v := range e.regs {
		next := e.val[c.Args[v][0]]
		if c.Ops[v] == circuit.OpRegEn && e.val[c.Args[v][1]] == 0 {
			next = e.val[v]
		}
		e.nextBuf[v] = next & circuit.Mask(c.Width[v])
	}
	for _, v := range e.regs {
		if e.val[v] != e.nextBuf[v] {
			e.val[v] = e.nextBuf[v]
			e.Events++
			e.emit(v)
		}
	}
	e.Cycles++
}

// eval computes one node from its current argument values.
func (e *EventDriven) eval(v graph.NodeID) uint64 {
	c := e.c
	op := c.Ops[v]
	args := c.Args[v]
	w := c.Width[v]
	switch op {
	case circuit.OpConst:
		return c.Vals[v]
	case circuit.OpInput, circuit.OpReg, circuit.OpRegEn:
		return e.val[v] // driven externally / by commit
	case circuit.OpOutput:
		return e.val[args[0]]
	case circuit.OpNot:
		return ^e.val[args[0]] & circuit.Mask(w)
	case circuit.OpMux:
		if e.val[args[0]] != 0 {
			return e.val[args[1]]
		}
		return e.val[args[2]]
	case circuit.OpBits:
		return (e.val[args[0]] >> c.Vals[v]) & circuit.Mask(w)
	case circuit.OpMemRead:
		m := e.mems[c.MemOf[v]]
		return m[e.val[args[0]]%uint64(len(m))] & circuit.Mask(w)
	case circuit.OpMemWrite:
		return 0
	default:
		return EvalBin(op, w, e.val[args[0]], e.val[args[1]], c.Width[args[1]])
	}
}
