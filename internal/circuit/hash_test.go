package circuit_test

import (
	"testing"

	"dedupsim/internal/circuit"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/gen"
)

// TestStructuralHashDeterministic: elaborating the same generator config
// twice must produce the same content address — the property the farm's
// compile cache relies on.
func TestStructuralHashDeterministic(t *testing.T) {
	p := gen.Config(gen.Rocket, 2, 0.1)
	h1 := gen.MustBuild(p).StructuralHash()
	h2 := gen.MustBuild(p).StructuralHash()
	if h1 != h2 {
		t.Fatalf("same config hashed differently: %s vs %s", h1, h2)
	}
	if h1 == (circuit.Hash{}) {
		t.Fatal("hash is zero")
	}
}

// TestStructuralHashDistinguishes: changing core count, family, or scale
// must change the hash.
func TestStructuralHashDistinguishes(t *testing.T) {
	base := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.1)).StructuralHash()
	variants := map[string]gen.SoCParams{
		"more cores":      gen.Config(gen.Rocket, 3, 0.1),
		"other family":    gen.Config(gen.SmallBoom, 2, 0.1),
		"different scale": gen.Config(gen.Rocket, 2, 0.2),
	}
	seen := map[string]string{base.String(): "base"}
	for name, p := range variants {
		h := gen.MustBuild(p).StructuralHash()
		if prev, dup := seen[h.String()]; dup {
			t.Errorf("%s collides with %s: %s", name, prev, h)
		}
		seen[h.String()] = name
	}
}

// TestStructuralHashFIRRTL: parsing the same FIRRTL text twice yields
// equal hashes, and a structural edit changes it.
func TestStructuralHashFIRRTL(t *testing.T) {
	src := gen.GenerateFIRRTL(gen.Config(gen.Rocket, 2, 0.1))
	c1, err := firrtl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := firrtl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if c1.StructuralHash() != c2.StructuralHash() {
		t.Fatalf("same FIRRTL text hashed differently: %s vs %s",
			c1.StructuralHash(), c2.StructuralHash())
	}
	// The generated design from the same config must match the parsed one
	// (Build is firrtl.Compile(GenerateFIRRTL(p)) under the hood).
	if got := gen.MustBuild(gen.Config(gen.Rocket, 2, 0.1)).StructuralHash(); got != c1.StructuralHash() {
		t.Fatalf("gen.Build and firrtl.Compile disagree: %s vs %s", got, c1.StructuralHash())
	}
}

// TestBuilderLeavesNoSlack: Finish trims every per-node slice to its
// length, and the way the builder grows them does not change the circuit:
// each family's hash is pinned.
func TestBuilderLeavesNoSlack(t *testing.T) {
	want := map[gen.Family]string{
		gen.Rocket:    "e7816f245a9208957320fbc9ff6adee885782e8e0bb73d069a023dc24285cc4f",
		gen.SmallBoom: "b5be77fde007a88d93fd885eeffaeb93a07f2c39c0095e505b9425a530ef55f2",
		gen.LargeBoom: "0b51b90e59dc2bc3a14ad8ff68cdbf6f24928a67cf625ec7013be9258416e16c",
		gen.MegaBoom:  "4362d37efca65b94267500b47414f95097d805ff3f6e4284eae2baded89a51c9",
	}
	for _, f := range gen.Families {
		c := gen.MustBuild(gen.Config(f, 2, 0.1))
		for name, lc := range map[string][2]int{
			"Ops":   {len(c.Ops), cap(c.Ops)},
			"Width": {len(c.Width), cap(c.Width)},
			"Args":  {len(c.Args), cap(c.Args)},
			"Vals":  {len(c.Vals), cap(c.Vals)},
			"Names": {len(c.Names), cap(c.Names)},
			"Inst":  {len(c.Inst), cap(c.Inst)},
			"MemOf": {len(c.MemOf), cap(c.MemOf)},
		} {
			if lc[0] != lc[1] {
				t.Errorf("%s: %s has len %d, cap %d", f, name, lc[0], lc[1])
			}
		}
		if got := c.StructuralHash().String(); got != want[f] {
			t.Errorf("%s-2C@0.1: hash %s, want %s", f, got, want[f])
		}
	}
}
