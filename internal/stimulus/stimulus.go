// Package stimulus provides deterministic testbench workloads for the
// generated SoCs, standing in for the paper's RISC-V vvadd benchmarks:
// workload A has a low signal-activity rate, workload B roughly doubles
// it and runs ~11x longer (paper Section 6.6).
package stimulus

import "dedupsim/internal/sim"

// Driver is the simulator-facing interface (both sim.Engine and sim.Ref
// satisfy it).
type Driver interface {
	SetInput(name string, v uint64) error
}

// Workload is a named, deterministic stimulus program.
type Workload struct {
	// Name identifies the workload ("A" or "B").
	Name string
	// Cycles is the nominal run length.
	Cycles int
	// seed, duty, and toggle parameterize the stream.
	seed   uint64
	duty   int // percent of cycles with stim_valid = 1
	toggle int // percent of cycles where the stim operand changes
}

// VVAddA is the paper's benchmark A: a short, low-activity run.
func VVAddA() Workload {
	return Workload{Name: "A", Cycles: 400, seed: 0x9e3779b97f4a7c15, duty: 14, toggle: 8}
}

// VVAddB is benchmark B: ~11x longer and roughly twice the activity.
func VVAddB() Workload {
	return Workload{Name: "B", Cycles: 4480, seed: 0xbf58476d1ce4e5b9, duty: 45, toggle: 28}
}

// WithSeed returns the workload reseeded; seed 0 keeps the default, so
// job specs can pass a zero value through unchanged.
func (w Workload) WithSeed(seed uint64) Workload {
	if seed != 0 {
		w.seed = seed
	}
	return w
}

// Lane derives the per-lane variant of the workload for batch
// simulation: lane 0 is the workload itself and higher lanes get
// decorrelated seeds (splitmix64 of the base seed), so L lanes behave
// like L independently seeded runs.
func (w Workload) Lane(lane int) Workload {
	if lane == 0 {
		return w
	}
	z := w.seed + uint64(lane)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	w.seed = z ^ (z >> 31)
	return w
}

// NewValues returns the raw stimulus stream: a fresh, self-contained
// generator yielding each cycle's (stim, stim_valid) pair. Calling a new
// generator over the same cycle sequence reproduces the same stimulus,
// so the reference and any number of engines (or batch lanes) can be
// driven in lockstep.
func (w Workload) NewValues() func(cycle int) (stim, valid uint64) {
	state := w.seed
	stim := uint64(0)
	return func(int) (uint64, uint64) {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 11
		valid := uint64(0)
		if int(r%100) < w.duty {
			valid = 1
		}
		// The operand holds between toggles so low-activity workloads
		// leave most of the datapath quiescent.
		if int((r/100)%100) < w.toggle {
			stim = r >> 14
		}
		return stim, valid
	}
}

// NewValuesFrom returns a generator fast-forwarded past the first skip
// cycles: the value it yields first is exactly what a fresh generator
// would yield on its (skip+1)-th call. Checkpoint-resume uses this to
// rejoin a stimulus stream at the checkpoint cycle without replaying the
// simulation — the generator is pure arithmetic, so the fast-forward is
// nanoseconds per skipped cycle.
func (w Workload) NewValuesFrom(skip int) func(cycle int) (stim, valid uint64) {
	vals := w.NewValues()
	for i := 0; i < skip; i++ {
		vals(i)
	}
	return vals
}

// NewDrive returns a fresh drive function over the generic named-input
// interface (reference interpreter, event-driven engine, ...).
func (w Workload) NewDrive() func(d Driver, cycle int) {
	vals := w.NewValues()
	return func(d Driver, cycle int) {
		stim, valid := vals(cycle)
		// Errors are impossible on the generated designs; ignore to keep
		// drive loops allocation-free and branch-light.
		_ = d.SetInput("stim", stim)
		_ = d.SetInput("stim_valid", valid)
	}
}

// NewEngineDrive returns a drive function bound to the engine's input
// slots: handles are resolved once here, so the per-cycle path does no
// string hashing. Inputs the design does not expose are skipped, matching
// NewDrive's ignore-errors behavior.
func (w Workload) NewEngineDrive(e *sim.Engine) func(cycle int) {
	return w.NewEngineDriveFrom(e, 0)
}

// NewEngineDriveFrom is NewEngineDrive with the stimulus stream
// fast-forwarded past the first skip cycles — the drive to pair with an
// engine restored from a cycle-skip checkpoint.
func (w Workload) NewEngineDriveFrom(e *sim.Engine, skip int) func(cycle int) {
	vals := w.NewValuesFrom(skip)
	hStim, _ := e.InputHandle("stim")
	hValid, _ := e.InputHandle("stim_valid")
	return func(cycle int) {
		stim, valid := vals(cycle)
		e.SetInputBySlot(hStim, stim)
		e.SetInputBySlot(hValid, valid)
	}
}

// NewLaneDrive returns a drive function for one lane of a batch engine,
// with handles resolved once like NewEngineDrive.
func (w Workload) NewLaneDrive(e *sim.BatchEngine, lane int) func(cycle int) {
	return w.NewLaneDriveFrom(e, lane, 0)
}

// NewLaneDriveFrom is NewLaneDrive with the stimulus stream
// fast-forwarded past the first skip cycles, for lanes restored from a
// checkpoint.
func (w Workload) NewLaneDriveFrom(e *sim.BatchEngine, lane, skip int) func(cycle int) {
	vals := w.NewValuesFrom(skip)
	hStim, _ := e.InputHandle("stim")
	hValid, _ := e.InputHandle("stim_valid")
	return func(cycle int) {
		stim, valid := vals(cycle)
		e.SetLaneInput(lane, hStim, stim)
		e.SetLaneInput(lane, hValid, valid)
	}
}
