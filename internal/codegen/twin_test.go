package codegen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dedupsim/internal/circuit"
	"dedupsim/internal/dedup"
	"dedupsim/internal/firrtl"
	"dedupsim/internal/gen"
	"dedupsim/internal/graph"
	"dedupsim/internal/sched"
)

func deduplicate(t *testing.T, c *circuit.Circuit, opt dedup.Options) (*dedup.Result, *sched.Schedule) {
	t.Helper()
	g := c.SchedGraph()
	dr, err := dedup.Deduplicate(c, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Baseline(dr.Part.Quotient(g))
	if err != nil {
		t.Fatal(err)
	}
	return dr, s
}

// TestDerivedTwinsMatchLowering is the oracle for lowerUnits: lowering
// every class twin in full with compilePartition must give exactly the
// unit derived from its template, and the Program's per-activation
// tables must be the full lowering's. Fusion runs after lowering, so it
// is varied only for the Program-level comparison.
func TestDerivedTwinsMatchLowering(t *testing.T) {
	type design struct {
		name string
		p    gen.SoCParams
		opt  dedup.Options
	}
	var designs []design
	for _, f := range gen.Families {
		for _, cores := range []int{2, 4} {
			designs = append(designs, design{fmt.Sprintf("%s-%dC", f, cores), gen.Config(f, cores, 0.1), dedup.Options{}})
		}
	}
	// Several deduplicated modules at once (paper Fig. 6b).
	designs = append(designs, design{"SmallBoom-4C-multi", gen.Config(gen.SmallBoom, 4, 0.25), dedup.Options{MultiModule: true}})

	for _, d := range designs {
		c := gen.MustBuild(d.p)
		dr, s := deduplicate(t, c, d.opt)
		for _, opt := range []Options{{}, {DisablePacking: true}, {DisableFusion: true}, {DisablePacking: true, DisableFusion: true}} {
			name := fmt.Sprintf("%s/packing=%v/fusion=%v", d.name, !opt.DisablePacking, !opt.DisableFusion)
			cc := newCompiler(c, dr, opt)
			got, err := cc.lowerUnits()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := make([]*unit, len(got))
			twins := 0
			for pid := range want {
				if want[pid], err = cc.compilePartition(dr.Members[pid], int32(pid)); err != nil {
					t.Fatalf("%s: partition %d: %v", name, pid, err)
				}
				if !reflect.DeepEqual(got[pid], want[pid]) {
					t.Fatalf("%s: partition %d: derived unit differs from full lowering:\n got %+v\nwant %+v", name, pid, got[pid], want[pid])
				}
				if cl := dr.Class[pid]; cl >= 0 && cc.classes[cl][0] != int32(pid) {
					twins++
				}
			}
			if twins == 0 {
				t.Fatalf("%s: no class twins to check", name)
			}

			p, err := Compile(c, dr, s, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range p.Activations {
				act := &p.Activations[i]
				u := want[act.Part]
				if !p.Kernels[act.Kernel].Shared {
					continue
				}
				if !reflect.DeepEqual(act.Ext, u.extSlots) || !reflect.DeepEqual(act.Mems, u.mems) ||
					!reflect.DeepEqual(act.TouchedSlots, u.touchedSlots(cc)) {
					t.Fatalf("%s: activation of partition %d: tables differ from full lowering", name, act.Part)
				}
			}
		}
	}
}

// twinEdit names one class member pair: template member tm[j] and its
// counterpart wm[j] in a twin.
type twinEdit struct {
	tm, wm []graph.NodeID
	j      int
}

// findTwin returns the first twin member pair that ok accepts.
func findTwin(t *testing.T, dr *dedup.Result, ok func(tm, wm []graph.NodeID, j int) bool) twinEdit {
	t.Helper()
	for _, parts := range classParts(dr) {
		tm := dr.Members[parts[0]]
		for _, pid := range parts[1:] {
			wm := dr.Members[pid]
			for j := range tm {
				if ok(tm, wm, j) {
					return twinEdit{tm, wm, j}
				}
			}
		}
	}
	t.Fatal("no class member fits the edit")
	return twinEdit{}
}

// twoBanks instantiates a module that reads two memories twice.
const twoBanks = `
circuit TwoBanks :
  module Bank :
    input d : UInt<8>
    output y : UInt<8>
    reg din : UInt<8>, reset 0
    din <= d
    reg cnt : UInt<4>, reset 0
    cnt <= add(cnt, UInt<4>(1))
    mem m0 : UInt<8>[16]
    mem m1 : UInt<8>[16]
    read q0 = m0[cnt]
    read q1 = m1[cnt]
    write m0[cnt] <= din when UInt<1>(1)
    write m1[cnt] <= xor(din, q0) when UInt<1>(1)
    reg r : UInt<8>, reset 0
    r <= xor(q0, q1)
    reg out : UInt<8>, reset 0
    out <= r
    y <= out

  module TwoBanks :
    input d : UInt<8>
    output y : UInt<8>
    inst b0 of Bank
    inst b1 of Bank
    b0.d <= d
    b1.d <= b0.y
    y <= b1.y
`

func stateOrInput(c *circuit.Circuit, v graph.NodeID) bool {
	return c.Ops[v].IsState() || c.Ops[v] == circuit.OpInput
}

// uses counts the arguments equal to a among the members of v's
// partition.
func uses(c *circuit.Circuit, dr *dedup.Result, v, a graph.NodeID) int {
	n := 0
	for _, m := range dr.Members[dr.Part.Assign[v]] {
		for _, x := range c.Args[m] {
			if x == a {
				n++
			}
		}
	}
	return n
}

func isBinary(op circuit.Op) bool {
	switch op {
	case circuit.OpAnd, circuit.OpOr, circuit.OpXor:
		return true
	}
	return false
}

// TestTwinCheckRejects edits one twin of a correctly deduplicated design
// before Compile; every edit changes an input lowering reads, so Compile
// must fail with the structural error instead of deriving a twin whose
// code would differ from its template's.
func TestTwinCheckRejects(t *testing.T) {
	p := gen.Config(gen.SmallBoom, 2, 0.25)
	cases := []struct {
		name string
		edit func(t *testing.T, c *circuit.Circuit, dr *dedup.Result)
	}{
		{"op", func(t *testing.T, c *circuit.Circuit, dr *dedup.Result) {
			e := findTwin(t, dr, func(_, wm []graph.NodeID, j int) bool { return isBinary(c.Ops[wm[j]]) })
			w := e.wm[e.j]
			if c.Ops[w] == circuit.OpXor {
				c.Ops[w] = circuit.OpOr
			} else {
				c.Ops[w] = circuit.OpXor
			}
		}},
		{"width", func(t *testing.T, c *circuit.Circuit, dr *dedup.Result) {
			e := findTwin(t, dr, func(_, wm []graph.NodeID, j int) bool { return isBinary(c.Ops[wm[j]]) })
			c.Width[e.wm[e.j]]++
		}},
		{"constant", func(t *testing.T, c *circuit.Circuit, dr *dedup.Result) {
			e := findTwin(t, dr, func(_, wm []graph.NodeID, j int) bool { return c.Ops[wm[j]] == circuit.OpConst })
			c.Vals[e.wm[e.j]] ^= 1
		}},
		{"arity", func(t *testing.T, c *circuit.Circuit, dr *dedup.Result) {
			e := findTwin(t, dr, func(_, wm []graph.NodeID, j int) bool { return isBinary(c.Ops[wm[j]]) })
			w := e.wm[e.j]
			c.Args[w] = c.Args[w][:1]
		}},
		// The two node-map cases use registers and inputs read from other
		// partitions: they always have a slot and never pack, so the map
		// is the only input the edit changes.
		{"two template args on one twin node", func(t *testing.T, c *circuit.Circuit, dr *dedup.Result) {
			external := func(v, a graph.NodeID) bool {
				return stateOrInput(c, a) && dr.Part.Assign[a] != dr.Part.Assign[v] && uses(c, dr, v, a) == 1
			}
			e := findTwin(t, dr, func(tm, wm []graph.NodeID, j int) bool {
				at, aw := c.Args[tm[j]], c.Args[wm[j]]
				return len(at) == 2 && !c.Ops[tm[j]].IsState() && at[0] != at[1] && aw[0] != aw[1] && c.Width[aw[0]] == c.Width[aw[1]] &&
					external(tm[j], at[0]) && external(tm[j], at[1]) && external(wm[j], aw[0]) && external(wm[j], aw[1])
			})
			w := e.wm[e.j]
			c.Args[w] = []graph.NodeID{c.Args[w][0], c.Args[w][0]}
		}},
		{"one template arg on two twin nodes", func(t *testing.T, c *circuit.Circuit, dr *dedup.Result) {
			var k int
			e := findTwin(t, dr, func(_, wm []graph.NodeID, j int) bool {
				for k = range c.Args[wm[j]] {
					a := c.Args[wm[j]][k]
					if stateOrInput(c, a) && dr.Part.Assign[a] != dr.Part.Assign[wm[j]] && uses(c, dr, wm[j], a) >= 2 {
						return true
					}
				}
				return false
			})
			w := e.wm[e.j]
			a := c.Args[w][k]
			for z := range c.Ops {
				z := graph.NodeID(z)
				if z != a && stateOrInput(c, z) && c.Width[z] == c.Width[a] &&
					dr.Part.Assign[z] != dr.Part.Assign[w] && uses(c, dr, w, z) == 0 {
					c.Args[w] = append([]graph.NodeID(nil), c.Args[w]...)
					c.Args[w][k] = z
					return
				}
			}
			t.Fatal("no replacement register")
		}},
		{"slot-ness", func(t *testing.T, c *circuit.Circuit, dr *dedup.Result) {
			// Move a consumer of a temp-only twin value to another
			// partition: the value crosses a boundary and gets a slot in
			// the twin only.
			cc := newCompiler(c, dr, Options{})
			consumer := func(wm []graph.NodeID, v graph.NodeID) int {
				for i, y := range wm {
					if !c.Ops[y].IsState() && len(c.Args[y]) > 0 && c.Args[y][0] == v {
						return i
					}
				}
				return -1
			}
			e := findTwin(t, dr, func(_, wm []graph.NodeID, j int) bool {
				return cc.slotOf[wm[j]] < 0 && consumer(wm, wm[j]) >= 0
			})
			y := e.wm[consumer(e.wm, e.wm[e.j])]
			dr.Part.Assign[y] = (dr.Part.Assign[y] + 1) % int32(dr.Part.NumParts)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := gen.MustBuild(p)
			dr, s := deduplicate(t, c, dedup.Options{})
			tc.edit(t, c, dr)
			prog, err := Compile(c, dr, s, Options{})
			if err == nil || !strings.Contains(err.Error(), "disagree structurally") {
				t.Fatalf("Compile error = %v, want the structural error", err)
			}
			if prog != nil {
				t.Fatal("Compile returned a Program with its error")
			}
		})
	}

	// The gen designs read at most one memory per class partition, so
	// the memory case uses a module with two.
	t.Run("memories", func(t *testing.T) {
		c, err := firrtl.Compile(twoBanks)
		if err != nil {
			t.Fatal(err)
		}
		dr, s := deduplicate(t, c, dedup.Options{})
		var k int
		e := findTwin(t, dr, func(tm, wm []graph.NodeID, j int) bool {
			if c.Ops[wm[j]] != circuit.OpMemRead {
				return false
			}
			for k = j + 1; k < len(wm); k++ {
				if c.Ops[wm[k]] == circuit.OpMemRead && c.MemOf[tm[k]] != c.MemOf[tm[j]] {
					return true
				}
			}
			return false
		})
		// Two template memories onto one twin memory.
		c.MemOf[e.wm[k]] = c.MemOf[e.wm[e.j]]
		prog, err := Compile(c, dr, s, Options{})
		if err == nil || !strings.Contains(err.Error(), "disagree structurally") || prog != nil {
			t.Fatalf("Compile = %v, %v; want the structural error and no Program", prog != nil, err)
		}
	})

	// Packing disagreement cannot come from the circuit: packEligible
	// forces class members to agree. Flip one twin node's packing after
	// slot assignment instead.
	t.Run("packing", func(t *testing.T) {
		c := gen.MustBuild(p)
		dr, _ := deduplicate(t, c, dedup.Options{})
		cc := newCompiler(c, dr, Options{})
		e := findTwin(t, dr, func(_, wm []graph.NodeID, j int) bool { return cc.isPacked(wm[j]) })
		cc.packedNode[e.wm[e.j]] = false
		if _, err := cc.lowerUnits(); err == nil || !strings.Contains(err.Error(), "disagree structurally") {
			t.Fatalf("lowerUnits error = %v, want the structural error", err)
		}
	})
}
