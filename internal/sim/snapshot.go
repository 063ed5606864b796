package sim

import (
	"fmt"
	"math/bits"
)

// Snapshot is a saved simulation state: every state word, every memory,
// the cycle counter, and (for exact resume) the per-partition activity
// flags and activation counters. Industrial RTL simulations run for days
// (paper Section 6.6); checkpointing makes long runs resumable — the
// farm retries a crashed job from its last checkpoint instead of cycle 0
// — and enables bisection debugging (restore, re-run with waves on).
//
// A Snapshot is lane-agnostic within one Program: BatchEngine.SaveLane
// (which Engine.Save is, at lane 0) captures one lane, and the snapshot
// restores into any lane of any engine executing the same Program. That
// is what lets a failed batch lane resume on its own.
type Snapshot struct {
	State  []uint64
	Mems   [][]uint64
	Cycles int64

	// Dirty, when non-nil, records the per-partition activity state so a
	// resumed run re-evaluates exactly what the uninterrupted run would
	// have — keeping ActsExecuted/ActsSkipped bit-exact with activity
	// skipping on. Restore falls back to marking everything dirty when
	// Dirty is nil (older snapshots): conservative and always sound, but
	// the first resumed step then over-executes.
	Dirty []bool

	// Activation counters at the checkpoint, restored so a resumed run's
	// final counters match an uninterrupted run's.
	ActsExecuted int64
	ActsSkipped  int64
	DynInstrs    int64
}

// Save captures the engine's architectural state plus the activity flags
// and counters needed for bit-exact resume.
func (e *Engine) Save() *Snapshot {
	s, _ := e.b.SaveLane(0) // lane 0 always exists
	return s
}

// Restore loads a snapshot previously taken from an engine (or batch
// lane) running the same program. With the snapshot's Dirty flags
// present the resumed run is bit-exact with an uninterrupted one;
// without them all partitions are marked dirty, which is conservative
// and always correct.
func (e *Engine) Restore(s *Snapshot) error {
	if err := e.b.RestoreLane(0, s); err != nil {
		return err
	}
	e.syncCounters()
	return nil
}

// SaveLane captures one batch lane's architectural state, activity
// flags, and counters in the lane-collapsed layout, so the snapshot can
// be restored into any lane of any engine running the same Program (the
// farm re-runs a failed lane alone, from this snapshot).
func (e *BatchEngine) SaveLane(lane int) (*Snapshot, error) {
	if lane < 0 || lane >= e.lanes {
		return nil, fmt.Errorf("sim: lane %d out of [0, %d)", lane, e.lanes)
	}
	L := e.lanes
	s := &Snapshot{
		State:        make([]uint64, len(e.state)/L),
		Mems:         make([][]uint64, len(e.mems)),
		Cycles:       e.Cycles[lane],
		Dirty:        make([]bool, e.p.NumParts),
		ActsExecuted: e.ActsExecuted[lane],
		ActsSkipped:  e.ActsSkipped[lane],
		DynInstrs:    e.DynInstrs[lane],
	}
	for w := range s.State {
		s.State[w] = e.state[w*L+lane]
	}
	for i, m := range e.mems {
		depth := len(m) / L
		lm := make([]uint64, depth)
		for a := 0; a < depth; a++ {
			lm[a] = m[a*L+lane]
		}
		s.Mems[i] = lm
	}
	if e.lanes == 1 {
		// Dirty starts all false: visit only the set worklist bits.
		for w, m := range e.actDirty {
			for ; m != 0; m &= m - 1 {
				s.Dirty[e.p.Activations[w<<6|bits.TrailingZeros64(m)].Part] = true
			}
		}
		return s, nil
	}
	bit := uint64(1) << uint(lane)
	for p := range e.dirty {
		s.Dirty[p] = e.dirty[p]&bit != 0
	}
	return s, nil
}

// RestoreLane loads a snapshot into one batch lane without disturbing
// the other lanes. The snapshot may come from SaveLane of any engine
// running the same Program.
func (e *BatchEngine) RestoreLane(lane int, s *Snapshot) error {
	if lane < 0 || lane >= e.lanes {
		return fmt.Errorf("sim: lane %d out of [0, %d)", lane, e.lanes)
	}
	L := e.lanes
	// The word count depends on the program's 1-bit packing layout, so a
	// snapshot from a differently-compiled program (e.g. packing disabled)
	// fails fast here instead of restoring silently-wrong state.
	if len(s.State) != len(e.state)/L {
		return fmt.Errorf("sim: snapshot has %d state words, engine has %d", len(s.State), len(e.state)/L)
	}
	if len(s.Mems) != len(e.mems) {
		return fmt.Errorf("sim: snapshot has %d memories, engine has %d", len(s.Mems), len(e.mems))
	}
	for i, m := range e.mems {
		if len(s.Mems[i]) != len(m)/L {
			return fmt.Errorf("sim: snapshot memory %d has depth %d, engine has %d", i, len(s.Mems[i]), len(m)/L)
		}
	}
	for w, v := range s.State {
		e.state[w*L+lane] = v
	}
	for i, lm := range s.Mems {
		m := e.mems[i]
		for a, v := range lm {
			m[a*L+lane] = v
		}
	}
	restored := len(s.Dirty) == e.p.NumParts
	for p := 0; p < e.p.NumParts; p++ {
		if w, bit := e.dirtyBit(p, lane); !restored || s.Dirty[p] {
			*w |= bit
		} else {
			*w &^= bit
		}
	}
	e.Cycles[lane] = s.Cycles
	e.ActsExecuted[lane] = s.ActsExecuted
	e.ActsSkipped[lane] = s.ActsSkipped
	e.DynInstrs[lane] = s.DynInstrs
	// Restored state carries no store history: set every register's
	// pending bit so the next commit phase scans them all once.
	setBits(e.regPend, len(e.p.Regs))
	return nil
}
