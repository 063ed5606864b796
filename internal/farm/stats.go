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
	// Lanes is the lane count of the engine this run stepped in lockstep
	// with other runs (farm coalescing, `dedupsim -lanes`); 0 means the
	// run had its engine to itself — a scalar engine or a one-lane batch.
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

// CollectLaneStats assembles a SimStats for one lane of a finished run.
// The counters are the lane's own (bit-exact with a dedicated one-lane
// engine); wall is the batch's elapsed time up to this lane's exit, so
// SimHz is the lane's share of the lockstep run. Lanes follows the
// SimStats rule: the engine's lane count when it ran two or more, 0 for
// one lane. hash is the circuit's structural hash, computed once by
// whoever elaborated it (the farm's design store, or dedupsim itself)
// rather than once per record.
func CollectLaneStats(c *circuit.Circuit, hash circuit.Hash, cv *harness.Compiled, be *sim.BatchEngine, lane int, compile, wall time.Duration) SimStats {
	prog := cv.Program
	st := SimStats{
		Design:       c.Name,
		Nodes:        c.NumNodes(),
		CircuitHash:  hash.String(),
		Variant:      string(cv.Variant),
		Partitions:   prog.NumParts,
		Kernels:      len(prog.Kernels),
		CodeBytes:    prog.UniqueCodeBytes,
		TableBytes:   prog.TableBytes,
		CompileMs:    float64(compile) / float64(time.Millisecond),
		Cycles:       be.Cycles[lane],
		WallMs:       float64(wall) / float64(time.Millisecond),
		ActsExecuted: be.ActsExecuted[lane],
		ActsSkipped:  be.ActsSkipped[lane],
		DynInstrs:    be.DynInstrs[lane],
		Outputs:      map[string]string{},
	}
	if be.Lanes() > 1 {
		st.Lanes = be.Lanes()
	}
	if cv.Dedup != nil {
		st.SharedClasses = cv.Dedup.NumClasses
	}
	if wall > 0 {
		st.SimHz = float64(st.Cycles) / wall.Seconds()
	}
	if total := st.ActsExecuted + st.ActsSkipped; total > 0 {
		st.ActivityPct = 100 * float64(st.ActsExecuted) / float64(total)
	}
	for _, out := range c.Outputs() {
		name := c.Names[out]
		if v, err := be.Output(lane, name); err == nil {
			st.Outputs[name] = fmt.Sprintf("%#x", v)
		}
	}
	return st
}
