package sim_test

import (
	"strings"
	"testing"

	"dedupsim/internal/gen"
	"dedupsim/internal/harness"
	"dedupsim/internal/partition"
	"dedupsim/internal/sim"
	"dedupsim/internal/stimulus"
)

func TestPartitionStats(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.SmallBoom, 2, 0.1))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := sim.NewBatch(cv.Program, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewPartitionStats(two); err == nil {
		t.Fatal("partition stats accepted a two-lane engine, whose hook never runs")
	}
	e, err := sim.NewBatch(cv.Program, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.NewPartitionStats(e)
	if err != nil {
		t.Fatal(err)
	}
	drive := stimulus.VVAddA().NewLaneDrive(e, 0)
	for cyc := 0; cyc < 100; cyc++ {
		drive(cyc)
		e.Step()
		st.Observe()
	}
	rate := st.ActivityRate()
	if rate <= 0 || rate >= 1 {
		t.Fatalf("activity rate out of range: %f", rate)
	}
	h := st.Histogram()
	total := 0
	for _, n := range h {
		total += n
	}
	if total != cv.Program.NumParts {
		t.Fatalf("histogram covers %d of %d partitions", total, cv.Program.NumParts)
	}
	// Low-activity workload: the distribution must be skewed, not uniform.
	if h["<10%"]+h["never"] == 0 {
		t.Fatalf("no cold partitions on a low-activity workload: %v", h)
	}

	var sb strings.Builder
	if err := st.WriteReport(&sb, cv.Program, 5); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"partition activity over 100 cycles", "executions", "modeled instrs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPartitionStatsChainedHook(t *testing.T) {
	// NewPartitionStats must preserve the engine's earlier activation
	// hook: a second collector on the same engine leaves the first live.
	c := gen.MustBuild(gen.Config(gen.Rocket, 1, 0.1))
	cv, err := harness.CompileVariant(c, harness.ESSENT, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewBatch(cv.Program, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sim.NewPartitionStats(e)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sim.NewPartitionStats(e)
	if err != nil {
		t.Fatal(err)
	}
	e.SetInput(0, "stim_valid", 1)
	e.Step()
	first.Observe()
	second.Observe()
	if first.ActivityRate() == 0 {
		t.Fatal("original hook lost")
	}
	if second.ActivityRate() != first.ActivityRate() {
		t.Fatalf("chained collectors disagree: %v vs %v", second.ActivityRate(), first.ActivityRate())
	}
}

// TestPartitionStatsClassLanes: on a 4-core Dedup design the report
// counts executed class runs, and a run never executes more members
// than it has.
func TestPartitionStatsClassLanes(t *testing.T) {
	c := gen.MustBuild(gen.Config(gen.Rocket, 4, 0.1))
	cv, err := harness.CompileVariant(c, harness.Dedup, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewBatch(cv.Program, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.NewPartitionStats(e)
	if err != nil {
		t.Fatal(err)
	}
	drive := stimulus.VVAddB().NewLaneDrive(e, 0)
	for cyc := 0; cyc < 200; cyc++ {
		drive(cyc)
		e.Step()
		st.Observe()
	}
	executed, length := st.ClassLanes()
	if executed < 1 || executed > length || length > 4 {
		t.Fatalf("class lanes %.2f of %.2f members, want 1 <= executed <= length <= 4", executed, length)
	}
	var sb strings.Builder
	if err := st.WriteReport(&sb, cv.Program, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "class runs: ") {
		t.Fatalf("report lacks the class-run line:\n%s", sb.String())
	}
}
