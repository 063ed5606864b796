package harness

import (
	"reflect"
	"strings"
	"testing"

	"dedupsim/internal/gen"
	"dedupsim/internal/partition"
	"dedupsim/internal/perfmodel"
	"dedupsim/internal/stimulus"
)

func TestCompileVariantAll(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.1))
	for _, v := range CompiledVariants {
		cv, err := CompileVariant(c, v, partition.Options{})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if cv.Program == nil || cv.Schedule == nil {
			t.Fatalf("%s: incomplete Compiled", v)
		}
		wantActivity := v == ESSENT || v == PO || v == NL || v == Dedup
		if cv.Activity != wantActivity {
			t.Fatalf("%s: activity = %v", v, cv.Activity)
		}
	}
	if _, err := CompileVariant(c, Commercial, partition.Options{}); err == nil {
		t.Fatal("Commercial must not compile to a program")
	}
}

// TestCompileVariantDeterministic: compiling one design twice in one
// process must give equal Programs. Kernel order is code layout, so the
// modelled cache behaviour depends on it.
func TestCompileVariantDeterministic(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.3))
	for _, v := range []Variant{Dedup, NL, Verilator} {
		a, err := CompileVariant(c, v, partition.Options{})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		b, err := CompileVariant(c, v, partition.Options{})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !reflect.DeepEqual(a.Program, b.Program) {
			t.Fatalf("%s: two compiles gave different Programs", v)
		}
	}
}

func TestVariantCodeSizeOrdering(t *testing.T) {
	// On a replicated design: Dedup code < ESSENT code; PO == ESSENT-ish
	// (same style, different partitions); NL == Dedup (same programs, only
	// scheduling differs).
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.1))
	size := map[Variant]int{}
	for _, v := range []Variant{ESSENT, PO, NL, Dedup} {
		cv, err := CompileVariant(c, v, partition.Options{})
		if err != nil {
			t.Fatal(err)
		}
		size[v] = cv.Program.UniqueCodeBytes
	}
	if size[Dedup] >= size[ESSENT] {
		t.Fatalf("dedup code %d >= essent %d", size[Dedup], size[ESSENT])
	}
	if size[NL] != size[Dedup] {
		t.Fatalf("NL (%d) and Dedup (%d) should compile identical programs", size[NL], size[Dedup])
	}
	if size[PO] <= size[Dedup] {
		t.Fatalf("PO (%d) should not shrink like Dedup (%d)", size[PO], size[Dedup])
	}
}

func TestMeasureCommercialAndCompiled(t *testing.T) {
	cfg := QuickConfig()
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, cfg.Scale))
	m := cfg.ServerMachine()
	for _, v := range []Variant{Commercial, ESSENT, Dedup} {
		meas, err := Measure(c, v, MeasureOptions{
			Machine: m, Workload: stimulus.VVAddA(), Cycles: 60,
			Sweep:     true,
			SweepWays: []int{1, m.LLCWays},
		})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if meas.Counters.SimHz <= 0 {
			t.Fatalf("%s: zero speed", v)
		}
		if len(meas.Curve.SimHz) != len(perfmodel.CapacitySweep(m)) {
			t.Fatalf("%s: curve not swept: %+v", v, meas.Curve)
		}
		for i := 1; i < len(meas.Curve.SimHz); i++ {
			if meas.Curve.SimHz[i-1] > meas.Curve.SimHz[i]*1.05 {
				t.Fatalf("%s: less cache faster: %v", v, meas.Curve.SimHz)
			}
		}
		if len(meas.WayCounters) != 2 {
			t.Fatalf("%s: way counters missing", v)
		}
	}
}

// TestAllExperimentsQuick runs every table and figure at the quick
// configuration and sanity-checks the rendered reports.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := QuickConfig()
	cfg.Cycles = 60
	cases := []struct {
		name string
		run  func() (*Report, error)
		want []string
	}{
		{"Table2", cfg.Table2, []string{"Rocket-1C", "Ideal"}},
		{"Table3", cfg.Table3, []string{"Relative Throughput", "Avg. Time"}},
		{"Table4", cfg.Table4, []string{"IPC", "L1I MPKI", "Dedup"}},
		{"Fig1", cfg.Fig1, []string{"Commercial", "Verilator", "K=48"}},
		{"Fig2", cfg.Fig2, []string{"LLC ways", "ESSENT"}},
		{"Fig8", cfg.Fig8, []string{"Rocket-1C", "Dedup"}},
		{"Fig9", cfg.Fig9, []string{"Max Dedup/ESSENT", "K=8"}},
		{"Fig10", cfg.Fig10, []string{"Rocket_4C"}},
		{"Fig11", cfg.Fig11, []string{"partition one instance", "verify isomorphism", "build classes", "Fraction"}},
		{"Fig12", cfg.Fig12, []string{"Max Dedup/ESSENT throughput: A", "B"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rep, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Title == "" || rep.Body == "" {
				t.Fatal("empty report")
			}
			for _, want := range tc.want {
				if !strings.Contains(rep.String(), want) {
					t.Fatalf("report missing %q:\n%s", want, rep.String())
				}
			}
		})
	}
}

func TestAblations(t *testing.T) {
	cfg := QuickConfig()
	cfg.Cycles = 50
	reps, err := cfg.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatalf("ablations = %d, want 4", len(reps))
	}
	// The boundary-dissolution study must show the Figure 4 hazard: naive
	// stamping cyclic on at least one design, and zero cycle-repair
	// rounds for the real flow.
	bd := reps[0].String()
	if !strings.Contains(bd, "YES") {
		t.Fatalf("naive stamping never cyclic:\n%s", bd)
	}
	// Locality study must show reuse distance collapsing to ~1.
	loc := reps[2].String()
	if !strings.Contains(loc, "1.0") {
		t.Fatalf("locality reuse distance missing:\n%s", loc)
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.cacheScale() != 20 {
		t.Fatalf("cache scale = %d, want 20 at scale 1.0", cfg.cacheScale())
	}
	cfg.Scale = 0.5
	if cfg.cacheScale() != 40 {
		t.Fatalf("cache scale = %d, want 40 at scale 0.5", cfg.cacheScale())
	}
	cfg.CacheScale = 7
	if cfg.cacheScale() != 7 {
		t.Fatal("explicit CacheScale ignored")
	}
	if got := clampCores(QuickConfig(), 6); got != 4 {
		t.Fatalf("clampCores(quick, 6) = %d, want 4", got)
	}
	if got := clampCores(DefaultConfig(), 6); got != 6 {
		t.Fatalf("clampCores(default, 6) = %d, want 6", got)
	}
	if paperLargeFamily(DefaultConfig()) != gen.LargeBoom {
		t.Fatal("paperLargeFamily should pick LargeBoom")
	}
	if paperLargeFamily(QuickConfig()) != gen.SmallBoom {
		t.Fatal("paperLargeFamily fallback wrong")
	}
}
