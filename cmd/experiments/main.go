// Command experiments regenerates the paper's evaluation tables and
// figures as text reports.
//
// Usage:
//
//	experiments -all                 # every table and figure (slow)
//	experiments -table 2 -table 4    # specific tables
//	experiments -fig 8 -fig 9        # specific figures
//	experiments -quick -all          # reduced design grid for a fast pass
//	experiments -scale 0.5 -cycles 200 -fig 8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dedupsim/internal/harness"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }
func (l *intList) Set(s string) error {
	var v int
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	var figs, tables intList
	all := flag.Bool("all", false, "run every table and figure")
	quick := flag.Bool("quick", false, "use the reduced design grid")
	scale := flag.Float64("scale", 0, "override design generator scale (0 = config default)")
	cycles := flag.Int("cycles", 0, "override simulated cycles per measurement")
	flag.Var(&figs, "fig", "figure number to regenerate (repeatable: 1 2 8 9 10 11 12)")
	flag.Var(&tables, "table", "table number to regenerate (repeatable: 2 3 4)")
	ablations := flag.Bool("ablations", false, "run the design-choice ablation studies")
	flag.Parse()

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.QuickConfig()
	}
	if *scale > 0 {
		cfg.Scale = *scale
		cfg.CacheScale = 0
	}
	if *cycles > 0 {
		cfg.Cycles = *cycles
	}

	type job struct {
		name string
		run  func() (*harness.Report, error)
	}
	jobs := map[string]job{
		"fig1":   {"Figure 1", cfg.Fig1},
		"fig2":   {"Figure 2", cfg.Fig2},
		"fig8":   {"Figure 8", cfg.Fig8},
		"fig9":   {"Figure 9", cfg.Fig9},
		"fig10":  {"Figure 10", cfg.Fig10},
		"fig11":  {"Figure 11", cfg.Fig11},
		"fig12":  {"Figure 12", cfg.Fig12},
		"table2": {"Table 2", cfg.Table2},
		"table3": {"Table 3", cfg.Table3},
		"table4": {"Table 4", cfg.Table4},
	}
	order := []string{"table2", "fig1", "fig2", "fig8", "fig9", "fig10", "fig11", "fig12", "table3", "table4"}

	var selected []string
	if *all {
		selected = order
	}
	for _, f := range figs {
		selected = append(selected, fmt.Sprintf("fig%d", f))
	}
	for _, t := range tables {
		selected = append(selected, fmt.Sprintf("table%d", t))
	}
	if len(selected) == 0 && !*ablations {
		fmt.Fprintln(os.Stderr, "nothing selected; use -all, -fig N, -table N, or -ablations")
		flag.Usage()
		os.Exit(2)
	}

	for _, key := range selected {
		j, ok := jobs[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", key)
			os.Exit(2)
		}
		start := time.Now()
		rep, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", j.name, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		fmt.Printf("(%s generated in %s)\n\n", j.name, time.Since(start).Round(time.Millisecond))
	}

	if *ablations {
		start := time.Now()
		reps, err := cfg.Ablations()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablations failed: %v\n", err)
			os.Exit(1)
		}
		for _, rep := range reps {
			fmt.Println(rep.String())
			fmt.Println()
		}
		fmt.Printf("(ablations generated in %s)\n", time.Since(start).Round(time.Millisecond))
	}
}
