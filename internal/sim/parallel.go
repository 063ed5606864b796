package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
	"dedupsim/internal/graph"
)

// ParallelEngine executes a compiled Program with multiple worker
// goroutines using levelized scheduling: partitions at the same
// topological level of the partition graph have no dependencies between
// them, so each level is a parallel-for with a barrier after it — the
// classic levelized-compiled-code approach (Wang et al., DAC'87) that the
// paper's related work (RepCut) improves on. It shares the paper's
// deduplicated kernels: all threads execute the same shared code bodies,
// so the code-footprint benefits compose with parallelism.
//
// Correctness relies on three static facts: distinct partitions never
// write the same slot, every cross-partition reader is at a strictly
// deeper level than its producer, and register/memory commits happen in a
// single-threaded phase. Activity flags are atomic because concurrent
// producers may wake the same consumer.
type ParallelEngine struct {
	p       *codegen.Program
	threads int

	// levels[i] lists activation indices whose partitions sit at
	// topological level i of the partition graph.
	levels [][]int32

	state  []uint64
	mems   [][]uint64
	dirty  []atomic.Bool
	temps  [][]uint64 // per worker
	markFn func(int32)

	inputs  map[string]codegen.PortSpec
	outputs map[string]codegen.PortSpec

	// Cycles counts executed steps; ActsExecuted/ActsSkipped are summed
	// across workers.
	Cycles       int64
	ActsExecuted int64
	ActsSkipped  int64
}

// NewParallel builds a parallel engine over the partition quotient graph
// q (the same graph the schedule was produced from). threads <= 0 selects
// GOMAXPROCS.
func NewParallel(p *codegen.Program, q *graph.Graph, threads int) (*ParallelEngine, error) {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	levels, err := q.TopoLevels()
	if err != nil {
		return nil, fmt.Errorf("sim: parallel: %w", err)
	}
	maxLvl := int32(0)
	for _, l := range levels {
		if l > maxLvl {
			maxLvl = l
		}
	}
	e := &ParallelEngine{
		p:       p,
		threads: threads,
		levels:  make([][]int32, maxLvl+1),
		state:   make([]uint64, p.NumWords),
		dirty:   make([]atomic.Bool, p.NumParts),
		inputs:  map[string]codegen.PortSpec{},
		outputs: map[string]codegen.PortSpec{},
	}
	// The one mark closure all workers share: consumer flags are atomic,
	// so concurrent producers may wake the same partition safely. Bound
	// here so the hot path never allocates.
	e.markFn = func(slot int32) {
		for _, pt := range e.p.SlotConsumers(slot) {
			e.dirty[pt].Store(true)
		}
	}
	for i := range p.Activations {
		lvl := levels[p.Activations[i].Part]
		e.levels[lvl] = append(e.levels[lvl], int32(i))
	}
	maxTemps := 0
	for _, k := range p.Kernels {
		if k.NumTemps > maxTemps {
			maxTemps = k.NumTemps
		}
	}
	e.temps = make([][]uint64, threads)
	for i := range e.temps {
		e.temps[i] = make([]uint64, maxTemps)
	}
	e.mems = make([][]uint64, len(p.Mems))
	for i, m := range p.Mems {
		e.mems[i] = make([]uint64, m.Depth)
	}
	for _, in := range p.Inputs {
		e.inputs[in.Name] = in
	}
	for _, out := range p.Outputs {
		e.outputs[out.Name] = out
	}
	e.Reset()
	return e, nil
}

// Reset restores reset state and marks everything dirty.
func (e *ParallelEngine) Reset() {
	for i := range e.state {
		e.state[i] = 0
	}
	for _, r := range e.p.Regs {
		e.state[r.Cur] = r.Reset
		e.state[r.Next] = r.Reset
	}
	for _, m := range e.mems {
		for i := range m {
			m[i] = 0
		}
	}
	for i := range e.dirty {
		e.dirty[i].Store(true)
	}
	e.Cycles, e.ActsExecuted, e.ActsSkipped = 0, 0, 0
}

// SetInput drives a named input (between Steps only).
func (e *ParallelEngine) SetInput(name string, v uint64) error {
	in, ok := e.inputs[name]
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	v &= circuit.Mask(in.Width)
	if e.state[in.Slot] != v {
		e.state[in.Slot] = v
		for _, pt := range e.p.SlotConsumers(in.Slot) {
			e.dirty[pt].Store(true)
		}
	}
	return nil
}

// Output reads a named output as of the last Step.
func (e *ParallelEngine) Output(name string) (uint64, error) {
	out, ok := e.outputs[name]
	if !ok {
		return 0, fmt.Errorf("sim: no output %q", name)
	}
	return e.state[out.Slot], nil
}

// Step evaluates one cycle: each level is a parallel-for over its
// activations with a barrier, then commits run single-threaded.
func (e *ParallelEngine) Step() {
	var executed, skipped int64
	for _, level := range e.levels {
		if len(level) == 0 {
			continue
		}
		workers := e.threads
		if workers > len(level) {
			workers = len(level)
		}
		if workers <= 1 {
			ex, sk := e.runChunk(level, 0)
			executed += ex
			skipped += sk
		} else {
			var wg sync.WaitGroup
			var exTot, skTot atomic.Int64
			chunk := (len(level) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > len(level) {
					hi = len(level)
				}
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(w int, acts []int32) {
					defer wg.Done()
					ex, sk := e.runChunk(acts, w)
					exTot.Add(ex)
					skTot.Add(sk)
				}(w, level[lo:hi])
			}
			wg.Wait()
			executed += exTot.Load()
			skipped += skTot.Load()
		}
	}
	// Commit phase (single-threaded, same semantics as Engine.Step).
	p := e.p
	for i := range p.Regs {
		r := &p.Regs[i]
		if r.En >= 0 && e.state[r.En] == 0 {
			continue
		}
		next := e.state[r.Next]
		if e.state[r.Cur] != next {
			e.state[r.Cur] = next
			for _, pt := range p.SlotConsumers(r.Cur) {
				e.dirty[pt].Store(true)
			}
		}
	}
	for i := range p.WritePorts {
		wp := &p.WritePorts[i]
		if e.state[wp.En] == 0 {
			continue
		}
		m := e.mems[wp.Mem]
		addr := e.state[wp.Addr] % uint64(len(m))
		data := e.state[wp.Data] & wp.Mask
		if m[addr] != data {
			m[addr] = data
			for _, pt := range p.MemConsumers(wp.Mem) {
				e.dirty[pt].Store(true)
			}
		}
	}
	e.Cycles++
	e.ActsExecuted += executed
	e.ActsSkipped += skipped
}

// runChunk executes a slice of same-level activations on worker w
// through the shared dispatch core. Plain stores to state are race-free —
// each slot (and, under 1-bit packing, each state WORD: packed bits are
// grouped by producing partition) has exactly one producing partition —
// while consumer wakes go through the atomic markFn.
func (e *ParallelEngine) runChunk(acts []int32, w int) (executed, skipped int64) {
	t := e.temps[w]
	p := e.p
	for _, ai := range acts {
		act := &p.Activations[ai]
		if !e.dirty[act.Part].Load() {
			skipped++
			continue
		}
		e.dirty[act.Part].Store(false)
		executed++
		execKernel(p, p.Kernels[act.Kernel], act, e.state, t, e.mems, e.markFn, nil)
	}
	return executed, skipped
}
