package sim_test

import (
	"math/rand"
	"testing"

	"dedupsim/internal/circuit"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

// --- Reference simulator unit tests -------------------------------------

func TestRefCounter(t *testing.T) {
	src := `
circuit Counter :
  module Counter :
    input en : UInt<1>
    output count : UInt<4>
    reg cnt : UInt<4>, reset 3
    cnt <= mux(en, add(cnt, UInt<4>(1)), cnt)
    count <= cnt
`
	c, err := firrtl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRef(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetInput("en", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r.Step()
	}
	got, err := r.Output("count")
	if err != nil {
		t.Fatal(err)
	}
	// Outputs sample the value DURING the last evaluated cycle: cycle i
	// observes the register state before that cycle's commit, so after 5
	// steps from reset value 3 the visible count is 3+4.
	if got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	// Disable and confirm it holds at the committed value.
	r.SetInput("en", 0)
	for i := 0; i < 3; i++ {
		r.Step()
	}
	if got, _ = r.Output("count"); got != 8 {
		t.Fatalf("count moved while disabled: %d", got)
	}
}

func TestRefMemoryReadFirst(t *testing.T) {
	src := `
circuit M :
  module M :
    input addr : UInt<2>
    input data : UInt<8>
    input wen : UInt<1>
    output q : UInt<8>
    mem m : UInt<8>[4]
    read r = m[addr]
    write m[addr] <= data when wen
    q <= r
`
	c, err := firrtl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := sim.NewRef(c)
	r.SetInput("addr", 1)
	r.SetInput("data", 0x5a)
	r.SetInput("wen", 1)
	r.Step()
	// Read-first: the cycle that wrote observed the OLD value (0).
	if got, _ := r.Output("q"); got != 0 {
		t.Fatalf("same-cycle read = %#x, want 0 (read-first)", got)
	}
	r.SetInput("wen", 0)
	r.Step()
	if got, _ := r.Output("q"); got != 0x5a {
		t.Fatalf("next-cycle read = %#x, want 0x5a", got)
	}
}

func TestRefResetRestoresState(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	r, err := sim.NewRef(c)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInput("stim", 123)
	r.SetInput("stim_valid", 1)
	for i := 0; i < 10; i++ {
		r.Step()
	}
	after10, _ := r.Output("result")
	r.Reset()
	r.SetInput("stim", 123)
	r.SetInput("stim_valid", 1)
	for i := 0; i < 10; i++ {
		r.Step()
	}
	again, _ := r.Output("result")
	if after10 != again {
		t.Fatalf("reset not deterministic: %#x vs %#x", after10, again)
	}
	if r.Cycles != 10 {
		t.Fatalf("cycles = %d", r.Cycles)
	}
}

func TestRefActivityRate(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	r, _ := sim.NewRef(c)
	r.SetInput("stim_valid", 0)
	for i := 0; i < 20; i++ {
		r.Step()
	}
	idle := r.ActivityRate()
	r.Reset()
	r.SetInput("stim_valid", 1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		r.SetInput("stim", rng.Uint64())
		r.Step()
	}
	busy := r.ActivityRate()
	if busy <= idle {
		t.Fatalf("activity did not rise with stimulus: idle=%.3f busy=%.3f", idle, busy)
	}
	if busy <= 0 || busy >= 1 {
		t.Fatalf("activity rate out of range: %f", busy)
	}
}

// EventOps is the work the Commercial (event-driven) performance model
// charges, so it must follow activity: an idle design does little work.
func TestRefEventOpsDropWhenIdle(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.1))
	r, err := sim.NewRef(c)
	if err != nil {
		t.Fatal(err)
	}
	// Burn the time-zero wavefront, then measure a busy and an idle phase.
	r.SetInput("stim_valid", 1)
	r.SetInput("stim", 123)
	for i := 0; i < 20; i++ {
		r.Step()
	}
	busyStart := r.EventOps
	drive := stimulus.VVAddB().NewDrive()
	for i := 0; i < 50; i++ {
		drive(r, i)
		r.Step()
	}
	busy := r.EventOps - busyStart

	r.SetInput("stim_valid", 0)
	r.SetInput("stim", 0)
	for i := 0; i < 50; i++ {
		r.Step() // let activity drain
	}
	idleStart := r.EventOps
	for i := 0; i < 50; i++ {
		r.Step()
	}
	idle := r.EventOps - idleStart
	if idle >= busy/2 {
		t.Fatalf("idle design still processes events: idle=%d busy=%d", idle, busy)
	}
}

func TestRefEventOpsScaleWithActivity(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 2, 0.1))
	run := func(wl stimulus.Workload) int64 {
		r, err := sim.NewRef(c)
		if err != nil {
			t.Fatal(err)
		}
		drive := wl.NewDrive()
		for i := 0; i < 150; i++ {
			drive(r, i)
			r.Step()
		}
		return r.EventOps
	}
	a, b := run(stimulus.VVAddA()), run(stimulus.VVAddB())
	if b <= a {
		t.Fatalf("workload B (%d events) not busier than A (%d)", b, a)
	}
}

// Reset clears the event-driven work counter with the state: a replayed
// run charges the same EventOps and ends on the same output.
func TestRefEventOpsReset(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	r, err := sim.NewRef(c)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (uint64, int64) {
		r.Reset()
		r.SetInput("stim", 7)
		r.SetInput("stim_valid", 1)
		for i := 0; i < 12; i++ {
			r.Step()
		}
		v, _ := r.Output("result")
		return v, r.EventOps
	}
	v1, ops1 := run()
	v2, ops2 := run()
	if v1 != v2 || ops1 != ops2 {
		t.Fatalf("replay after Reset differs: result %#x vs %#x, EventOps %d vs %d", v1, v2, ops1, ops2)
	}
	if ops1 == 0 {
		t.Fatal("EventOps = 0 after 12 driven cycles")
	}
}

func TestRefInputErrors(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	r, err := sim.NewRef(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetInput("bogus", 1); err == nil {
		t.Fatal("bogus input accepted")
	}
	if _, err := r.Output("bogus"); err == nil {
		t.Fatal("bogus output accepted")
	}
}

// --- EvalBin semantics ---------------------------------------------------

func TestEvalBinSemantics(t *testing.T) {
	cases := []struct {
		op   circuit.Op
		w    uint8
		a, b uint64
		bw   uint8
		want uint64
	}{
		{circuit.OpAdd, 8, 0xff, 1, 8, 0},
		{circuit.OpSub, 8, 0, 1, 8, 0xff},
		{circuit.OpMul, 4, 5, 5, 4, 9}, // 25 & 0xf
		{circuit.OpAnd, 4, 0b1100, 0b1010, 4, 0b1000},
		{circuit.OpOr, 4, 0b1100, 0b1010, 4, 0b1110},
		{circuit.OpXor, 4, 0b1100, 0b1010, 4, 0b0110},
		{circuit.OpEq, 1, 7, 7, 8, 1},
		{circuit.OpNeq, 1, 7, 7, 8, 0},
		{circuit.OpLt, 1, 3, 7, 8, 1},
		{circuit.OpGeq, 1, 3, 7, 8, 0},
		{circuit.OpShl, 8, 0b1, 3, 8, 0b1000},
		{circuit.OpShl, 8, 0b1, 200, 8, 0},
		{circuit.OpShr, 8, 0b1000, 3, 8, 1},
		{circuit.OpCat, 12, 0xa, 0x5b, 8, 0xa5b},
	}
	for _, tc := range cases {
		if got := sim.EvalBin(tc.op, tc.w, tc.a, tc.b, tc.bw); got != tc.want {
			t.Errorf("%s(%#x, %#x) w=%d: got %#x, want %#x", tc.op, tc.a, tc.b, tc.w, got, tc.want)
		}
	}
}

// --- Engine vs reference equivalence ------------------------------------

// driveBoth runs the reference and a compiled engine in lockstep for n
// cycles of shared pseudo-random stimulus, comparing every output every
// cycle.
func driveBoth(t *testing.T, c *circuit.Circuit, e *sim.Engine, label string, n int, seed int64) {
	t.Helper()
	ref, err := sim.NewRef(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := c.Inputs()
	outputs := c.Outputs()
	for cyc := 0; cyc < n; cyc++ {
		for _, in := range inputs {
			v := rng.Uint64() & circuit.Mask(c.Width[in])
			if rng.Intn(4) == 0 {
				v = 0 // idle bursts exercise activity skipping
			}
			name := c.Names[in]
			if err := ref.SetInput(name, v); err != nil {
				t.Fatal(err)
			}
			if err := e.SetInput(name, v); err != nil {
				t.Fatal(err)
			}
		}
		ref.Step()
		e.Step()
		for _, out := range outputs {
			name := c.Names[out]
			want, _ := ref.Output(name)
			got, err := e.Output(name)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: cycle %d output %q: engine %#x, reference %#x",
					label, cyc, name, got, want)
			}
		}
	}
}

func TestAllVariantsMatchReference(t *testing.T) {
	designs := []*circuit.Circuit{
		gen.MustBuild(gen.Config(gen.Rocket, 2, 0.1)),
		gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.08)),
	}
	for _, c := range designs {
		for _, v := range harness.CompiledVariants {
			cv, err := harness.CompileVariant(c, v, partition.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, v, err)
			}
			e := sim.New(cv.Program, cv.Activity)
			driveBoth(t, c, e, c.Name+"/"+string(v), 60, 42)
		}
	}
}

func TestActivitySkippingIsSound(t *testing.T) {
	// The same program with and without skipping must agree cycle-by-
	// cycle (memoization soundness), and skipping must actually skip.
	c := gen.MustBuild(gen.Config(gen.LargeBoom, 2, 0.06))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eager := sim.New(cv.Program, false)
	lazy := sim.New(cv.Program, true)
	rng := rand.New(rand.NewSource(77))
	for cyc := 0; cyc < 80; cyc++ {
		valid := uint64(0)
		if rng.Intn(3) == 0 {
			valid = 1
		}
		stim := rng.Uint64()
		for _, e := range []*sim.Engine{eager, lazy} {
			e.SetInput("stim", stim)
			e.SetInput("stim_valid", valid)
			e.Step()
		}
		for _, out := range []string{"result", "done"} {
			a, _ := eager.Output(out)
			b, _ := lazy.Output(out)
			if a != b {
				t.Fatalf("cycle %d: %q diverged: eager %#x lazy %#x", cyc, out, a, b)
			}
		}
	}
	if lazy.ActsSkipped == 0 {
		t.Fatal("activity mode never skipped anything")
	}
	if eager.ActsSkipped != 0 {
		t.Fatal("eager mode skipped")
	}
	if lazy.ActsExecuted >= eager.ActsExecuted {
		t.Fatalf("lazy executed %d >= eager %d", lazy.ActsExecuted, eager.ActsExecuted)
	}
}

func TestDedupCodeFootprintShrinks(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.1))
	base, err := harness.CompileVariant(c, harness.ESSENT, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dd, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dd.Program.UniqueCodeBytes >= base.Program.UniqueCodeBytes {
		t.Fatalf("dedup did not shrink code: %d vs %d bytes",
			dd.Program.UniqueCodeBytes, base.Program.UniqueCodeBytes)
	}
	ratio := float64(dd.Program.UniqueCodeBytes) / float64(base.Program.UniqueCodeBytes)
	t.Logf("code footprint: ESSENT %d B -> Dedup %d B (%.0f%%)",
		base.Program.UniqueCodeBytes, dd.Program.UniqueCodeBytes, 100*ratio)
	if ratio > 0.85 {
		t.Fatalf("4-core dedup footprint only shrank to %.0f%%", 100*ratio)
	}
}

func TestDedupTaxMoreInstructions(t *testing.T) {
	// Paper Table 4: Dedup executes ~12% more instructions than ESSENT.
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.1))
	run := func(v harness.Variant) int64 {
		cv, err := harness.CompileVariant(c, v, partition.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e := sim.New(cv.Program, false) // eager so instruction counts are comparable
		rng := rand.New(rand.NewSource(3))
		for cyc := 0; cyc < 40; cyc++ {
			e.SetInput("stim", rng.Uint64())
			e.SetInput("stim_valid", 1)
			e.Step()
		}
		return e.DynInstrs
	}
	essent := run(harness.ESSENT)
	dd := run(harness.Dedup)
	if dd <= essent {
		t.Fatalf("dedup tax missing: %d <= %d instructions", dd, essent)
	}
	tax := float64(dd-essent) / float64(essent)
	t.Logf("dedup tax: +%.1f%% instructions (paper: +12.4%%)", 100*tax)
	if tax > 0.6 {
		t.Fatalf("dedup tax implausibly high: +%.1f%%", 100*tax)
	}
}

func TestVerilatorFineGrainSharesLittle(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.1))
	vd, err := harness.CompileVariant(c, harness.Verilator, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vn, err := harness.CompileVariant(c, harness.VerilatorNoDedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vd.Program.UniqueCodeBytes > vn.Program.UniqueCodeBytes {
		t.Fatal("fine-grain dedup grew the code")
	}
	saved := 1 - float64(vd.Program.UniqueCodeBytes)/float64(vn.Program.UniqueCodeBytes)
	t.Logf("Verilator statement dedup saved %.1f%% code (paper: negligible)", 100*saved)
	if saved > 0.15 {
		t.Fatalf("fine-grained dedup saved implausibly much: %.1f%%", 100*saved)
	}
}

func TestEngineInputErrors(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	cv, err := harness.CompileVariant(c, harness.ESSENT, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(cv.Program, true)
	if err := e.SetInput("nonexistent", 1); err == nil {
		t.Fatal("bogus input accepted")
	}
	if _, err := e.Output("nonexistent"); err == nil {
		t.Fatal("bogus output accepted")
	}
}

func TestEngineResetDeterminism(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.1))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(cv.Program, true)
	run := func() uint64 {
		e.Reset()
		e.SetInput("stim", 99)
		e.SetInput("stim_valid", 1)
		for i := 0; i < 15; i++ {
			e.Step()
		}
		v, _ := e.Output("result")
		return v
	}
	if run() != run() {
		t.Fatal("engine not deterministic across Reset")
	}
}

func TestPropertyRandomCircuitsAllVariants(t *testing.T) {
	// Random flat circuits (no hierarchy): dedup degenerates to baseline,
	// but every variant must still match the reference.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		c := randomCircuit(rng, 60+rng.Intn(100))
		for _, v := range []harness.Variant{harness.ESSENT, harness.Dedup, harness.Verilator} {
			cv, err := harness.CompileVariant(c, v, partition.Options{MaxSize: 8 + rng.Intn(24)})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, v, err)
			}
			e := sim.New(cv.Program, cv.Activity)
			driveBoth(t, c, e, c.Name+"/"+string(v), 30, int64(trial))
		}
	}
}

// randomCircuit builds a random but legal flat design with registers
// (about half of them enable-gated by one bit of a pool node), memories,
// and every op kind.
func randomCircuit(rng *rand.Rand, n int) *circuit.Circuit {
	b := circuit.NewBuilder("rand")
	var pool []int32
	width := func() uint8 { return uint8(1 + rng.Intn(63)) }
	in0 := b.Input("a", width())
	in1 := b.Input("b", width())
	pool = append(pool, in0, in1)
	var regs, enRegs []int32
	for i := 0; i < 1+rng.Intn(5); i++ {
		if rng.Intn(2) == 0 {
			r := b.RegEn("", width(), rng.Uint64())
			pool = append(pool, r)
			enRegs = append(enRegs, r)
		} else {
			r := b.Reg("", width(), rng.Uint64())
			pool = append(pool, r)
			regs = append(regs, r)
		}
	}
	mem := b.Memory("m", 1<<uint(2+rng.Intn(4)), width())
	pick := func() int32 { return pool[rng.Intn(len(pool))] }
	binOps := []circuit.Op{
		circuit.OpAnd, circuit.OpOr, circuit.OpXor, circuit.OpAdd, circuit.OpSub,
		circuit.OpMul, circuit.OpEq, circuit.OpNeq, circuit.OpLt, circuit.OpGeq,
		circuit.OpShl, circuit.OpShr,
	}
	for i := 0; i < n; i++ {
		var id int32
		switch rng.Intn(10) {
		case 0:
			id = b.Const(width(), rng.Uint64())
		case 1:
			id = b.Not(pick())
		case 2:
			id = b.Mux(pick(), pick(), pick())
		case 3:
			x := pick()
			w := b.Width(x)
			lo := uint8(rng.Intn(int(w)))
			bw := uint8(1 + rng.Intn(int(w-lo)))
			id = b.Bits(x, lo, bw)
		case 4:
			id = b.MemRead(mem, pick())
		case 5:
			x, y := pick(), pick()
			if int(b.Width(x))+int(b.Width(y)) <= 64 {
				id = b.Binary(circuit.OpCat, x, y)
			} else {
				id = b.Binary(circuit.OpXor, x, y)
			}
		default:
			id = b.Binary(binOps[rng.Intn(len(binOps))], pick(), pick())
		}
		pool = append(pool, id)
	}
	for _, r := range regs {
		b.SetRegNext(r, pool[rng.Intn(len(pool))])
	}
	for _, r := range enRegs {
		x := pick()
		en := b.Bits(x, uint8(rng.Intn(int(b.Width(x)))), 1)
		b.SetRegNextEn(r, pool[rng.Intn(len(pool))], en)
	}
	b.MemWrite(mem, pick(), pick(), pick())
	b.Output("y", pool[len(pool)-1])
	b.Output("z", pool[len(pool)/2])
	return b.MustFinish()
}
