package farm

import (
	"fmt"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/harness"
	"dedupsim/internal/sim"
)

// SimStats is the machine-readable record of one simulation run. It is
// the single JSON encoding of simulation results shared by the farm API
// and by `dedupsim -json`, so scripts can consume either interchangeably.
type SimStats struct {
	Design string `json:"design"`
	Nodes  int    `json:"nodes"`
	// CircuitHash is the elaborated design's content address.
	CircuitHash string `json:"circuit_hash,omitempty"`

	Variant       string `json:"variant"`
	Partitions    int    `json:"partitions"`
	Kernels       int    `json:"kernels"`
	SharedClasses int    `json:"shared_classes"`
	CodeBytes     int    `json:"code_bytes"`
	TableBytes    int    `json:"table_bytes"`
	// CompileMs is the compile wall time. For farm jobs served from the
	// compile cache it is 0 (no compile ran).
	CompileMs float64 `json:"compile_ms"`

	Workload string `json:"workload,omitempty"`
	// Lanes is the batch width this run shared an engine with (farm
	// coalescing); 0 means a dedicated scalar engine.
	Lanes        int     `json:"lanes,omitempty"`
	Cycles       int64   `json:"cycles"`
	WallMs       float64 `json:"wall_ms"`
	SimHz        float64 `json:"sim_hz"`
	ActsExecuted int64   `json:"acts_executed"`
	ActsSkipped  int64   `json:"acts_skipped"`
	ActivityPct  float64 `json:"activity_pct"`
	DynInstrs    int64   `json:"dyn_instrs"`
	// Outputs maps each top-level output to its final value in hex
	// (strings, so 64-bit values survive JSON's float64 numbers).
	Outputs map[string]string `json:"outputs"`
}

// CollectStats assembles a SimStats from a finished run. hash is the
// circuit's structural hash, computed once by whoever elaborated it (the
// farm's design store, or dedupsim itself) rather than once per record.
func CollectStats(c *circuit.Circuit, hash circuit.Hash, cv *harness.Compiled, e *sim.Engine, compile, wall time.Duration) SimStats {
	st := designStats(c, hash, cv, compile, wall)
	st.Cycles = e.Cycles
	st.ActsExecuted = e.ActsExecuted
	st.ActsSkipped = e.ActsSkipped
	st.DynInstrs = e.DynInstrs
	st.finish(c, wall, e.Output)
	return st
}

// CollectLaneStats assembles a SimStats for one lane of a batch run. The
// counters are the lane's own (bit-exact with a dedicated scalar engine);
// wall is the batch's elapsed time up to this lane's exit, so SimHz is
// the lane's share of the lockstep run, and the per-job numbers sum to
// the batch aggregate.
func CollectLaneStats(c *circuit.Circuit, hash circuit.Hash, cv *harness.Compiled, be *sim.BatchEngine, lane int, compile, wall time.Duration) SimStats {
	st := designStats(c, hash, cv, compile, wall)
	st.Lanes = be.Lanes()
	st.Cycles = be.Cycles[lane]
	st.ActsExecuted = be.ActsExecuted[lane]
	st.ActsSkipped = be.ActsSkipped[lane]
	st.DynInstrs = be.DynInstrs[lane]
	st.finish(c, wall, func(name string) (uint64, error) { return be.Output(lane, name) })
	return st
}

// designStats fills the fields that depend only on the design, its
// Program and the clock — everything but the engine's counters.
func designStats(c *circuit.Circuit, hash circuit.Hash, cv *harness.Compiled, compile, wall time.Duration) SimStats {
	prog := cv.Program
	st := SimStats{
		Design:      c.Name,
		Nodes:       c.NumNodes(),
		CircuitHash: hash.String(),
		Variant:     string(cv.Variant),
		Partitions:  prog.NumParts,
		Kernels:     len(prog.Kernels),
		CodeBytes:   prog.UniqueCodeBytes,
		TableBytes:  prog.TableBytes,
		CompileMs:   float64(compile) / float64(time.Millisecond),
		WallMs:      float64(wall) / float64(time.Millisecond),
		Outputs:     map[string]string{},
	}
	if cv.Dedup != nil {
		st.SharedClasses = cv.Dedup.NumClasses
	}
	return st
}

// finish derives the rates from the counters already set and reads the
// final outputs through the engine's (or lane's) accessor.
func (st *SimStats) finish(c *circuit.Circuit, wall time.Duration, output func(string) (uint64, error)) {
	if wall > 0 {
		st.SimHz = float64(st.Cycles) / wall.Seconds()
	}
	if total := st.ActsExecuted + st.ActsSkipped; total > 0 {
		st.ActivityPct = 100 * float64(st.ActsExecuted) / float64(total)
	}
	for _, out := range c.Outputs() {
		name := c.Names[out]
		if v, err := output(name); err == nil {
			st.Outputs[name] = fmt.Sprintf("%#x", v)
		}
	}
}
