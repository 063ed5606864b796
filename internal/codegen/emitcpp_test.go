package codegen

import (
	"fmt"
	"strings"
	"testing"

	"dedupsim/internal/gen"
)

func TestEmitCppStructure(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 4, 0.12))
	p := compile(t, c, true, Options{})
	var sb strings.Builder
	if err := EmitCpp(&sb, p, c.Name); err != nil {
		t.Fatal(err)
	}
	src := sb.String()
	for _, want := range []string{
		"struct Rocket_4C {",
		fmt.Sprintf("uint64_t state[%d]", p.NumWords),
		"void eval()",
		"void commit()",
		"void step()",
		"set_stim(", "get_result(",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("emitted C++ missing %q", want)
		}
	}
	// One function definition per kernel, no more.
	if got := strings.Count(src, "  void kernel"); got != len(p.Kernels) {
		t.Fatalf("kernel functions = %d, want %d", got, len(p.Kernels))
	}
	// Shared kernels take an ext table; the eval body calls them once per
	// activation with DIFFERENT static tables.
	if !strings.Contains(src, "const uint32_t* ext") {
		t.Fatal("no shared kernel signatures emitted")
	}
	if !strings.Contains(src, "_ext[") {
		t.Fatal("no per-activation tables emitted")
	}
}

func TestEmitCppDedupShrinksSource(t *testing.T) {
	// The emitted TEXT itself must show the footprint win: the dedup
	// program's source is substantially smaller than the baseline's for
	// a 4-core design.
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 4, 0.12))
	base := compile(t, c, false, Options{})
	dd := compile(t, c, true, Options{})
	var sbBase, sbDD strings.Builder
	if err := EmitCpp(&sbBase, base, c.Name); err != nil {
		t.Fatal(err)
	}
	if err := EmitCpp(&sbDD, dd, c.Name); err != nil {
		t.Fatal(err)
	}
	ratio := float64(sbDD.Len()) / float64(sbBase.Len())
	if ratio > 0.8 {
		t.Fatalf("emitted dedup source only %.0f%% smaller", 100*(1-ratio))
	}
	t.Logf("emitted C++: baseline %d B -> dedup %d B (%.0f%%)", sbBase.Len(), sbDD.Len(), 100*ratio)
}

func TestEmitCppActivationCount(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.12))
	p := compile(t, c, true, Options{})
	var sb strings.Builder
	if err := EmitCpp(&sb, p, c.Name); err != nil {
		t.Fatal(err)
	}
	// eval() must contain exactly one call per activation.
	evalBody := sb.String()
	evalBody = evalBody[strings.Index(evalBody, "void eval()"):]
	evalBody = evalBody[:strings.Index(evalBody, "}")]
	if got := strings.Count(evalBody, "kernel"); got != len(p.Activations) {
		t.Fatalf("eval() calls %d kernels, want %d activations", got, len(p.Activations))
	}
}

func TestIdentSanitizes(t *testing.T) {
	if ident("Rocket-2C") != "Rocket_2C" {
		t.Fatalf("ident: %q", ident("Rocket-2C"))
	}
	if ident("9bad name") != "_bad_name" {
		t.Fatalf("ident: %q", ident("9bad name"))
	}
	if ident("") != "Design" {
		t.Fatalf("ident empty: %q", ident(""))
	}
}
