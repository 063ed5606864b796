package sim_test

import (
	"fmt"
	"testing"

	"dedupsim/internal/circuit"
	"dedupsim/internal/codegen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/sim"
)

// commitCase is a small circuit for the register-commit tests: drive
// gives lane l's inputs for a cycle, and alias (optional) rewrites the
// compiled Program's register slots before any engine is built.
type commitCase struct {
	c     *circuit.Circuit
	regs  []circuit.NodeID
	drive func(lane, cyc int) map[string]uint64
	alias func(t *testing.T, p *codegen.Program, regIdx func(circuit.NodeID) int)
}

// runCommitCase steps the case on a one-lane and a three-lane engine,
// with activity on and off, and requires every lane's outputs and
// register values to match a sim.Ref driven with the same inputs, every
// cycle. After cycle moveAt every lane moves, through SaveLane and
// RestoreLane, to a second engine that has stepped once on zero inputs:
// its pending-register bits say nothing about the restored state, so the
// run only stays exact if RestoreLane re-arms them.
func runCommitCase(t *testing.T, cc commitCase, moveAt, cycles int) {
	for _, lanes := range []int{1, 3} {
		for _, activity := range []bool{true, false} {
			t.Run(fmt.Sprintf("L%d_activity=%v", lanes, activity), func(t *testing.T) {
				cv, err := harness.CompileVariant(cc.c, harness.ESSENT, partition.Options{})
				if err != nil {
					t.Fatal(err)
				}
				p := cv.Program
				regIdx := func(v circuit.NodeID) int {
					for i, r := range p.Regs {
						if r.Cur == p.SlotOfNode[v] {
							return i
						}
					}
					t.Fatalf("node %d is not a register", v)
					return -1
				}
				if cc.alias != nil {
					cc.alias(t, p, regIdx)
				}
				be, err := sim.NewBatch(p, activity, lanes)
				if err != nil {
					t.Fatal(err)
				}
				refs := make([]*sim.Ref, lanes)
				for l := range refs {
					if refs[l], err = sim.NewRef(cc.c); err != nil {
						t.Fatal(err)
					}
				}
				twin, err := sim.NewBatch(p, activity, lanes)
				if err != nil {
					t.Fatal(err)
				}
				twin.Step()
				for cyc := 0; cyc < cycles; cyc++ {
					if cyc == moveAt+1 {
						for l := 0; l < lanes; l++ {
							s, _ := be.SaveLane(l)
							if err := twin.RestoreLane(l, s); err != nil {
								t.Fatal(err)
							}
						}
						be = twin
					}
					for l := 0; l < lanes; l++ {
						for name, v := range cc.drive(l, cyc) {
							if err := refs[l].SetInput(name, v); err != nil {
								t.Fatal(err)
							}
							if err := be.SetInput(l, name, v); err != nil {
								t.Fatal(err)
							}
						}
						refs[l].Step()
					}
					be.Step()
					for l := 0; l < lanes; l++ {
						for _, out := range cc.c.Outputs() {
							name := cc.c.Names[out]
							want, _ := refs[l].Output(name)
							if got, _ := be.Output(l, name); got != want {
								t.Fatalf("cycle %d lane %d output %q: engine %#x, reference %#x", cyc, l, name, got, want)
							}
						}
						for _, r := range cc.regs {
							if got, want := be.Slot(l, p.SlotOfNode[r]), refs[l].Value(r); got != want {
								t.Fatalf("cycle %d lane %d register %q: engine %#x, reference %#x",
									cyc, l, cc.c.Names[r], got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestCommitEnableRisesAfterNext: a register whose next value changed
// while its enable was 0 must commit on the cycle the enable rises, even
// though its next value did not change that cycle. The pending bit set
// by the next-value store was spent on a blocked scan; only the enable
// store can set it again.
func TestCommitEnableRisesAfterNext(t *testing.T) {
	b := circuit.NewBuilder("enlate")
	d := b.Input("d", 8)
	en := b.Input("en", 1)
	r := b.RegEn("r", 8, 0)
	b.SetRegNextEn(r, d, en)
	b.Output("q", r)
	runCommitCase(t, commitCase{
		c:    b.MustFinish(),
		regs: []circuit.NodeID{r},
		drive: func(lane, cyc int) map[string]uint64 {
			cyc -= lane // lanes run the same script, staggered
			dv := uint64(0)
			if cyc >= 1 {
				dv = 5 + uint64(lane)
			}
			if cyc >= 8 {
				dv = 9 + uint64(lane)
			}
			var ev uint64
			if cyc == 5 || cyc == 12 {
				ev = 1
			}
			return map[string]uint64{"d": dv, "en": ev}
		},
	}, 5, 20)
}

// TestCommitSharedEnableSlot: when two registers watch one slot, the
// second is scanned every cycle. Codegen gives every register a private
// enable slot, so the test points one register's enable at the other's;
// both hold the same input, so the circuit's meaning is unchanged.
func TestCommitSharedEnableSlot(t *testing.T) {
	b := circuit.NewBuilder("shareden")
	a := b.Input("a", 8)
	bb := b.Input("b", 8)
	en := b.Input("en", 1)
	r1 := b.RegEn("r1", 8, 0)
	r2 := b.RegEn("r2", 8, 0)
	b.SetRegNextEn(r1, a, en)
	b.SetRegNextEn(r2, bb, en)
	b.Output("q1", r1)
	b.Output("q2", r2)
	runCommitCase(t, commitCase{
		c:    b.MustFinish(),
		regs: []circuit.NodeID{r1, r2},
		drive: func(lane, cyc int) map[string]uint64 {
			cyc -= lane
			bv := uint64(0)
			if cyc >= 1 {
				bv = 7 + uint64(lane)
			}
			if cyc >= 9 {
				bv = 2
			}
			var ev uint64
			if cyc == 5 || cyc == 13 {
				ev = 1
			}
			return map[string]uint64{"a": 3, "b": bv, "en": ev}
		},
		alias: func(t *testing.T, p *codegen.Program, regIdx func(circuit.NodeID) int) {
			p.Regs[regIdx(r2)].En = p.Regs[regIdx(r1)].En
		},
	}, 9, 20)
}

// TestCommitChangesWatchedSlot: a register commit that changes a slot
// another register watches must wake that register. The test makes a
// two-stage shift register (front <= d, back <= front) and points back's
// next-value slot straight at front's current-state slot, so the only
// notice back gets is front's commit. back commits first (lower index),
// so it reads front's pre-commit value, as two-phase commit requires,
// and the notice lands on an earlier register: it waits for the next
// cycle.
func TestCommitChangesWatchedSlot(t *testing.T) {
	b := circuit.NewBuilder("shift")
	d := b.Input("d", 8)
	back := b.Reg("back", 8, 0)
	front := b.Reg("front", 8, 0)
	b.SetRegNext(front, d)
	b.SetRegNext(back, front)
	b.Output("q", back)
	runCommitCase(t, commitCase{
		c:    b.MustFinish(),
		regs: []circuit.NodeID{front, back},
		drive: func(lane, cyc int) map[string]uint64 {
			cyc -= lane
			dv := uint64(0)
			switch {
			case cyc >= 10:
				dv = 1
			case cyc >= 6:
				dv = 4 + uint64(lane)
			case cyc >= 2:
				dv = 11
			}
			return map[string]uint64{"d": dv}
		},
		alias: func(t *testing.T, p *codegen.Program, regIdx func(circuit.NodeID) int) {
			ib, ifr := regIdx(back), regIdx(front)
			if ib >= ifr {
				t.Fatalf("back is register %d, front %d: the case needs back first", ib, ifr)
			}
			p.Regs[ib].Next = p.Regs[ifr].Cur
		},
	}, 6, 20)
}
