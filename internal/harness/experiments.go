package harness

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"dedupsim/internal/circuit"
	"dedupsim/internal/dedup"
	"dedupsim/internal/gen"
	"dedupsim/internal/partition"
	"dedupsim/internal/perfmodel"
	"dedupsim/internal/stimulus"
)

// Config parameterizes an experiment run. The zero value is NOT usable;
// call DefaultConfig.
type Config struct {
	// Scale is the design generator scale in (0, 1]; 1.0 reproduces the
	// calibrated evaluation designs (~1/20 of the paper's node counts).
	Scale float64
	// CacheScale shrinks the modeled host caches to keep the design:cache
	// ratio aligned with the paper; 0 derives it from Scale.
	CacheScale int
	// Cycles bounds simulated cycles per measurement (0 = workload
	// default).
	Cycles int
	// Parallel is the K sweep for batch experiments.
	Parallel []int
	// Families/CoreCounts filter the design grid.
	Families   []gen.Family
	CoreCounts []int
}

// DefaultConfig returns the full-evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Scale:      1.0,
		Cycles:     300,
		Parallel:   []int{1, 8, 16, 24, 32, 40, 48},
		Families:   gen.Families,
		CoreCounts: []int{1, 2, 4, 6, 8},
	}
}

// QuickConfig returns a reduced configuration for tests and benchmarks.
func QuickConfig() Config {
	return Config{
		Scale:      0.15,
		Cycles:     120,
		Parallel:   []int{1, 8, 24, 48},
		Families:   []gen.Family{gen.Rocket, gen.SmallBoom},
		CoreCounts: []int{1, 2, 4},
	}
}

func (cfg Config) cacheScale() int {
	if cfg.CacheScale > 0 {
		return cfg.CacheScale
	}
	s := int(math.Round(20 / cfg.Scale))
	if s < 1 {
		s = 1
	}
	return s
}

// ServerMachine returns the scaled Server platform for this config.
func (cfg Config) ServerMachine() perfmodel.Machine {
	return perfmodel.Server().ScaleCaches(cfg.cacheScale())
}

// DesktopMachine returns the scaled Desktop platform for this config.
func (cfg Config) DesktopMachine() perfmodel.Machine {
	return perfmodel.Desktop().ScaleCaches(cfg.cacheScale())
}

// Report is a rendered experiment result.
type Report struct {
	Title string
	Body  string
}

func (r *Report) String() string {
	return fmt.Sprintf("== %s ==\n%s", r.Title, r.Body)
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return sb.String()
}

func (cfg Config) build(f gen.Family, cores int) *circuit.Circuit {
	return gen.MustBuild(gen.Config(f, cores, cfg.Scale))
}

// Table2 reproduces the evaluated-designs table: node and edge counts,
// ideal vs real node reduction per design.
func (cfg Config) Table2() (*Report, error) {
	rows := [][]string{}
	for _, f := range cfg.Families {
		for _, n := range cfg.CoreCounts {
			c := cfg.build(f, n)
			r, err := dedup.Deduplicate(c, c.SchedGraph(), dedup.Options{})
			if err != nil {
				return nil, fmt.Errorf("table2 %s-%dC: %w", f, n, err)
			}
			rows = append(rows, []string{
				fmt.Sprintf("%s-%dC", f, n),
				fmt.Sprintf("%d", c.NumNodes()),
				fmt.Sprintf("%d", c.NumEdges()),
				fmt.Sprintf("%.2f%%", 100*r.Stats.IdealReduction),
				fmt.Sprintf("%.2f%%", 100*r.Stats.RealReduction),
			})
		}
	}
	return &Report{
		Title: "Table 2: Evaluated designs and node reduction",
		Body: table([]string{"Design", "Nodes", "Edges", "Ideal Node Reduction", "Real Node Reduction"},
			rows),
	}, nil
}

// Fig8 reproduces single-simulation relative speed, normalized to ESSENT,
// for every variant on every design in the grid.
func (cfg Config) Fig8() (*Report, error) {
	m := cfg.ServerMachine()
	header := append([]string{"Design"}, variantNames(AllVariants)...)
	rows := [][]string{}
	for _, f := range cfg.Families {
		for _, n := range cfg.CoreCounts {
			c := cfg.build(f, n)
			speeds := map[Variant]float64{}
			for _, v := range AllVariants {
				meas, err := Measure(c, v, MeasureOptions{
					Machine: m, Workload: stimulus.VVAddA(), Cycles: cfg.Cycles,
				})
				if err != nil {
					return nil, fmt.Errorf("fig8 %s-%dC %s: %w", f, n, v, err)
				}
				speeds[v] = meas.Counters.SimHz
			}
			row := []string{fmt.Sprintf("%s-%dC", f, n)}
			base := speeds[ESSENT]
			for _, v := range AllVariants {
				row = append(row, fmt.Sprintf("%.2f", speeds[v]/base))
			}
			rows = append(rows, row)
		}
	}
	return &Report{
		Title: "Figure 8: Single-simulation speed relative to ESSENT (Server)",
		Body:  table(header, rows),
	}, nil
}

// Fig2 reproduces the LLC-constraint experiment: execution time versus
// allocated LLC ways on the largest design, normalized per variant to its
// full-cache time.
func (cfg Config) Fig2() (*Report, error) {
	m := cfg.ServerMachine()
	c := cfg.build(fig2Family(cfg), fig2Cores(cfg))
	variants := []Variant{Commercial, Verilator, ESSENT, Dedup}
	header := []string{"LLC ways (capacity)"}
	for _, v := range variants {
		header = append(header, string(v))
	}
	sweepWays := DefaultSweep(m)
	perWay := map[Variant][]perfmodel.Counters{}
	for _, v := range variants {
		meas, err := Measure(c, v, MeasureOptions{
			Machine: m, Workload: stimulus.VVAddA(), Cycles: cfg.Cycles,
			SweepWays: sweepWays,
		})
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", v, err)
		}
		perWay[v] = meas.WayCounters
	}
	rows := [][]string{}
	for i, w := range sweepWays {
		row := []string{fmt.Sprintf("%d (%s)", w, fmtBytes(float64(m.LLCSize)*float64(w)/float64(m.LLCWays)))}
		for _, v := range variants {
			cs := perWay[v]
			full := cs[len(cs)-1].SimHz
			row = append(row, fmt.Sprintf("%.2fx", full/cs[i].SimHz))
		}
		rows = append(rows, row)
	}
	return &Report{
		Title: fmt.Sprintf("Figure 2: Slowdown vs. allocated LLC on %s (1.00x = full cache)", c.Name),
		Body:  table(header, rows),
	}, nil
}

// Fig9 reproduces batch simulation throughput: aggregate simulated cycles
// per second for K parallel simulations, per design and variant, on the
// dual-socket server.
func (cfg Config) Fig9() (*Report, error) {
	return cfg.batchFigure("Figure 9: Batch throughput on Server (aggregate kHz of simulated cycles)",
		cfg.ServerMachine(), true, cfg.batchGrid(), stimulus.VVAddA())
}

// Fig10 reproduces the Desktop (3D V-Cache) batch experiment on a
// moderate and a large design.
func (cfg Config) Fig10() (*Report, error) {
	grid := []designPoint{
		{gen.Rocket, 4},
		{largestFamily(cfg), maxCores(cfg)},
	}
	ks := []int{}
	for _, k := range cfg.Parallel {
		if k <= cfg.DesktopMachine().Cores {
			ks = append(ks, k)
		}
	}
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8}
	}
	cfg2 := cfg
	cfg2.Parallel = ks
	return cfg2.batchFigure("Figure 10: Batch throughput on Desktop (3D V-Cache)",
		cfg.DesktopMachine(), false, grid, stimulus.VVAddA())
}

// Fig1 reproduces the motivating parallel-scaling figure: Commercial and
// Verilator on a large and a small design, normalized to one Commercial
// simulation of the same design.
func (cfg Config) Fig1() (*Report, error) {
	m := cfg.ServerMachine()
	grid := []designPoint{
		{largestFamily(cfg), maxCores(cfg)},
		{gen.Rocket, 1},
	}
	variants := []Variant{Commercial, Verilator}
	header := []string{"Design", "Simulator"}
	for _, k := range cfg.Parallel {
		header = append(header, fmt.Sprintf("K=%d", k))
	}
	rows := [][]string{}
	for _, dp := range grid {
		c := cfg.build(dp.family, dp.cores)
		var base float64
		for _, v := range variants {
			meas, err := Measure(c, v, MeasureOptions{
				Machine: m, Workload: stimulus.VVAddA(), Cycles: cfg.Cycles,
				Sweep: true,
			})
			if err != nil {
				return nil, fmt.Errorf("fig1 %s %s: %w", c.Name, v, err)
			}
			if v == Commercial {
				base = perfmodel.DualSocketBatch(meas.Curve, m, 1).Throughput
			}
			row := []string{c.Name, string(v)}
			for _, k := range cfg.Parallel {
				bp := perfmodel.DualSocketBatch(meas.Curve, m, k)
				row = append(row, fmt.Sprintf("%.2f", bp.Throughput/base))
			}
			rows = append(rows, row)
		}
	}
	return &Report{
		Title: "Figure 1: Parallel-scaling limits (throughput normalized to 1x Commercial)",
		Body:  table(header, rows),
	}, nil
}

// Table3 reproduces the Commercial-simulator contention table on
// SmallBoom-4C: relative throughput and average completion time per
// simulation for a fixed workload.
func (cfg Config) Table3() (*Report, error) {
	m := cfg.ServerMachine()
	c := cfg.build(gen.SmallBoom, min4(cfg))
	meas, err := Measure(c, Commercial, MeasureOptions{
		Machine: m, Workload: stimulus.VVAddA(), Cycles: cfg.Cycles,
		Sweep: true,
	})
	if err != nil {
		return nil, err
	}
	// Fixed per-simulation workload, sized so one unconstrained run takes
	// ~1000 modeled seconds like the paper's.
	p1 := perfmodel.DualSocketBatch(meas.Curve, m, 1)
	workCycles := p1.PerSimHz * 959
	header := []string{"Parallel Simulations"}
	thr := []string{"Relative Throughput"}
	avg := []string{"Avg. Time (s)"}
	for _, k := range cfg.Parallel {
		bp := perfmodel.DualSocketBatch(meas.Curve, m, k)
		header = append(header, fmt.Sprintf("%d", k))
		thr = append(thr, fmt.Sprintf("%.2f", bp.Throughput/p1.Throughput))
		avg = append(avg, fmt.Sprintf("%.0f", workCycles/bp.PerSimHz))
	}
	return &Report{
		Title: fmt.Sprintf("Table 3: Commercial simulator contention on %s", c.Name),
		Body:  table(header, [][]string{thr, avg}),
	}, nil
}

// Table4 reproduces the hardware-counter table on the large design at
// three LLC allocations for ESSENT, PO, NL, and Dedup.
func (cfg Config) Table4() (*Report, error) {
	m := cfg.ServerMachine()
	c := cfg.build(paperLargeFamily(cfg), table4Cores(cfg))
	variants := []Variant{ESSENT, PO, NL, Dedup}
	ways := []int{2, 4, 6}
	var body strings.Builder
	for _, w := range ways {
		if w > m.LLCWays {
			continue
		}
		capacity := fmtBytes(float64(m.LLCSize) * float64(w) / float64(m.LLCWays))
		rows := [][]string{}
		metric := func(name string, f func(perfmodel.Counters) string, cs map[Variant]perfmodel.Counters) {
			row := []string{name}
			for _, v := range variants {
				row = append(row, f(cs[v]))
			}
			rows = append(rows, row)
		}
		cs := map[Variant]perfmodel.Counters{}
		for _, v := range variants {
			meas, err := Measure(c, v, MeasureOptions{
				Machine: m, Workload: stimulus.VVAddA(), Cycles: cfg.Cycles, LLCWays: w,
			})
			if err != nil {
				return nil, fmt.Errorf("table4 %s: %w", v, err)
			}
			cs[v] = meas.Counters
		}
		metric("Instructions", func(x perfmodel.Counters) string { return fmt.Sprintf("%.2e", float64(x.Instrs)) }, cs)
		metric("Exec Time (s)", func(x perfmodel.Counters) string { return fmt.Sprintf("%.4f", x.ExecSeconds) }, cs)
		metric("IPC", func(x perfmodel.Counters) string { return fmt.Sprintf("%.2f", x.IPC) }, cs)
		metric("L1I MPKI", func(x perfmodel.Counters) string { return fmt.Sprintf("%.2f", x.L1IMPKI) }, cs)
		metric("L1D MPKI", func(x perfmodel.Counters) string { return fmt.Sprintf("%.2f", x.L1DMPKI) }, cs)
		metric("L2 MPKI", func(x perfmodel.Counters) string { return fmt.Sprintf("%.2f", x.L2MPKI) }, cs)
		metric("L3 MPKI", func(x perfmodel.Counters) string { return fmt.Sprintf("%.2f", x.L3MPKI) }, cs)
		metric("Branch MPKI", func(x perfmodel.Counters) string { return fmt.Sprintf("%.2f", x.BranchMPKI) }, cs)
		metric("Pipeline Stall (%)", func(x perfmodel.Counters) string { return fmt.Sprintf("%.2f", x.StallPct) }, cs)
		fmt.Fprintf(&body, "-- Allocated LLC: %s (%d ways) --\n", capacity, w)
		body.WriteString(table(append([]string{"Metric"}, variantNames(variants)...), rows))
	}
	return &Report{
		Title: fmt.Sprintf("Table 4: Modeled hardware counters on %s (Server)", c.Name),
		Body:  body.String(),
	}, nil
}

// Fig11 reproduces the graph-partitioning-time comparison: wall-clock
// stage breakdown of the dedup partitioner versus the baseline.
func (cfg Config) Fig11() (*Report, error) {
	c := cfg.build(paperLargeFamily(cfg), table4Cores(cfg))
	g := c.SchedGraph()

	// Min-of-3 tames scheduler noise at these short absolute times.
	baseline := time.Duration(1 << 62)
	var t dedup.Timing
	t.Total = 1 << 62
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		if _, err := partition.Partition(g, partition.Options{}); err != nil {
			return nil, err
		}
		if d := time.Since(start); d < baseline {
			baseline = d
		}
		r, err := dedup.Deduplicate(c, g, dedup.Options{})
		if err != nil {
			return nil, err
		}
		if r.Timing.Total < t.Total {
			t = r.Timing
		}
	}
	rows := [][]string{
		{"ESSENT (baseline)", fmtDur(baseline), "1.000"},
		{"Dedup: select module", fmtDur(t.Select), frac(t.Select, baseline)},
		{"Dedup: verify isomorphism", fmtDur(t.Verify), frac(t.Verify, baseline)},
		{"Dedup: partition one instance", fmtDur(t.PartitionInstance), frac(t.PartitionInstance, baseline)},
		{"Dedup: dissolve boundary/cycles", fmtDur(t.Dissolve), frac(t.Dissolve, baseline)},
		{"Dedup: apply to instances", fmtDur(t.Stamp), frac(t.Stamp, baseline)},
		{"Dedup: partition remainder", fmtDur(t.Remainder), frac(t.Remainder, baseline)},
		{"Dedup: build classes", fmtDur(t.Classes), frac(t.Classes, baseline)},
		{"Dedup: total", fmtDur(t.Total), frac(t.Total, baseline)},
	}
	body := table([]string{"Stage", "Time", "Fraction of baseline"}, rows)
	body += "\nNote: both partitioners are milliseconds here, so the dedup flow's\n" +
		"fixed stages (selection, verification, stamping) weigh against the\n" +
		"instance it skips; the remainder pass is bounded by its budgeted\n" +
		"safe-merge searches through frozen stamped hubs (see EXPERIMENTS.md).\n"
	return &Report{
		Title: fmt.Sprintf("Figure 11: Graph partitioning time on %s (paper: Dedup = 17.6%% of ESSENT)", c.Name),
		Body:  body,
	}, nil
}

// Fig12 reproduces the workload-duration experiment on SmallBoom-6C:
// batch throughput for benchmarks A and B.
func (cfg Config) Fig12() (*Report, error) {
	m := cfg.ServerMachine()
	c := cfg.build(gen.SmallBoom, fig12Cores(cfg))
	variants := []Variant{Commercial, Verilator, ESSENT, Dedup}
	header := []string{"Workload", "Simulator"}
	for _, k := range cfg.Parallel {
		header = append(header, fmt.Sprintf("K=%d", k))
	}
	rows := [][]string{}
	best := map[string]float64{}
	for _, wl := range []stimulus.Workload{stimulus.VVAddA(), stimulus.VVAddB()} {
		cycles := cfg.Cycles
		if wl.Name == "B" && cycles > 0 {
			cycles *= 3 // longer, more active run (full 11.2x is unnecessary for the model)
		}
		perVar := map[Variant]perfmodel.Curve{}
		for _, v := range variants {
			meas, err := Measure(c, v, MeasureOptions{
				Machine: m, Workload: wl, Cycles: cycles, Sweep: true,
			})
			if err != nil {
				return nil, fmt.Errorf("fig12 %s %s: %w", wl.Name, v, err)
			}
			perVar[v] = meas.Curve
		}
		for _, v := range variants {
			row := []string{wl.Name, string(v)}
			for _, k := range cfg.Parallel {
				bp := perfmodel.DualSocketBatch(perVar[v], m, k)
				row = append(row, fmt.Sprintf("%.1f", bp.Throughput/1000))
				key := wl.Name + "/" + string(v)
				if bp.Throughput > best[key] {
					best[key] = bp.Throughput
				}
			}
			rows = append(rows, row)
		}
	}
	body := table(header, rows)
	if best["B/ESSENT"] > 0 && best["A/ESSENT"] > 0 {
		body += fmt.Sprintf("\nMax Dedup/ESSENT throughput: A %.3fx, B %.3fx (paper: 2.079x / 2.308x)\n",
			best["A/Dedup"]/best["A/ESSENT"], best["B/Dedup"]/best["B/ESSENT"])
	}
	return &Report{
		Title: fmt.Sprintf("Figure 12: Workload A vs B batch throughput on %s (kHz)", c.Name),
		Body:  body,
	}, nil
}

// --- shared helpers ------------------------------------------------------

type designPoint struct {
	family gen.Family
	cores  int
}

// batchGrid picks the Fig. 9 design grid from the config.
func (cfg Config) batchGrid() []designPoint {
	var grid []designPoint
	for _, f := range cfg.Families {
		for _, n := range cfg.CoreCounts {
			if n == 1 {
				continue // Fig. 9 focuses on replicated designs
			}
			grid = append(grid, designPoint{f, n})
		}
	}
	return grid
}

// batchFigure renders a batch-throughput grid for all variants.
func (cfg Config) batchFigure(title string, m perfmodel.Machine, dualSocket bool, grid []designPoint, wl stimulus.Workload) (*Report, error) {
	header := []string{"Design", "Simulator"}
	for _, k := range cfg.Parallel {
		header = append(header, fmt.Sprintf("K=%d", k))
	}
	rows := [][]string{}
	var maxGain float64
	var maxGainAt string
	for _, dp := range grid {
		c := cfg.build(dp.family, dp.cores)
		curves := map[Variant]perfmodel.Curve{}
		for _, v := range AllVariants {
			meas, err := Measure(c, v, MeasureOptions{
				Machine: m, Workload: wl, Cycles: cfg.Cycles, Sweep: true,
			})
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", c.Name, v, err)
			}
			curves[v] = meas.Curve
		}
		batch := func(v Variant, k int) perfmodel.BatchPoint {
			if dualSocket {
				return perfmodel.DualSocketBatch(curves[v], m, k)
			}
			return perfmodel.Batch(curves[v], m, k)
		}
		for _, v := range AllVariants {
			row := []string{c.Name, string(v)}
			for _, k := range cfg.Parallel {
				bp := batch(v, k)
				row = append(row, fmt.Sprintf("%.1f", bp.Throughput/1000))
				if v == Dedup {
					if e := batch(ESSENT, k); e.Throughput > 0 {
						if gain := bp.Throughput / e.Throughput; gain > maxGain {
							maxGain, maxGainAt = gain, fmt.Sprintf("%s K=%d", c.Name, k)
						}
					}
				}
			}
			rows = append(rows, row)
		}
	}
	body := table(header, rows)
	if maxGain > 0 {
		body += fmt.Sprintf("\nMax Dedup/ESSENT throughput gain: %.3fx at %s (paper: up to 2.09x)\n", maxGain, maxGainAt)
	}
	return &Report{Title: title, Body: body}, nil
}

func variantNames(vs []Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(v)
	}
	return out
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

func fmtDur(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }

func frac(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(a)/float64(b))
}

// Grid helpers clamp the paper's design choices to whatever the config
// includes (so QuickConfig still runs every experiment).
func largestFamily(cfg Config) gen.Family { return cfg.Families[len(cfg.Families)-1] }

// paperLargeFamily prefers LargeBoom — the paper's choice for Figs. 2/11
// and Table 4 — falling back to the largest configured family.
func paperLargeFamily(cfg Config) gen.Family {
	for _, f := range cfg.Families {
		if f == gen.LargeBoom {
			return f
		}
	}
	return largestFamily(cfg)
}

func maxCores(cfg Config) int {
	m := cfg.CoreCounts[0]
	for _, n := range cfg.CoreCounts {
		if n > m {
			m = n
		}
	}
	return m
}

func table4Cores(cfg Config) int { return clampCores(cfg, 6) }
func fig12Cores(cfg Config) int  { return clampCores(cfg, 6) }
func min4(cfg Config) int        { return clampCores(cfg, 4) }

func fig2Family(cfg Config) gen.Family { return paperLargeFamily(cfg) }
func fig2Cores(cfg Config) int         { return clampCores(cfg, 6) }

func clampCores(cfg Config, want int) int {
	best := cfg.CoreCounts[0]
	for _, n := range cfg.CoreCounts {
		if n <= want && n > best {
			best = n
		}
	}
	if want <= maxCores(cfg) {
		return want
	}
	return best
}
