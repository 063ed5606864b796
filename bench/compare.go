package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// compareFiles prints one row per workload and end-to-end metric — both
// medians with their quartiles, the ratio with its base, and a verdict —
// then every exact count that differs. It reports whether b is free of
// regressions and count drift against a.
//
// A metric has regressed when b's median is worse than a's by more than
// the metric's bound; it is unresolved, not unchanged, when either side's
// own quartiles lie further apart than the bound.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (%s, seed %d)\nb = %s (%s, seed %d)\n", pathA, a.Stamp.GitSHA, a.Stamp.Seed, pathB, b.Stamp.GitSHA, b.Stamp.Seed)
	fmt.Fprintf(w, "%-14s %-13s %12s %25s %12s %25s %14s  %s\n", "workload", "metric", "a median", "[q1, q3]", "b median", "[q1, q3]", "b/a", "verdict")
	ok := true
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, inA := ra.Metrics[d.name]
			sb, inB := rb.Metrics[d.name]
			if !inA || !inB {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict, ok = "regressed", false
			case math.Max(sa.IQRFrac(), sb.IQRFrac()) > d.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-13s %12.5g %25s %12.5g %25s %7.3f of a  %s\n", wl.name, d.name,
				sa.Median, fmt.Sprintf("[%.5g, %.5g]", sa.Q1, sa.Q3), sb.Median, fmt.Sprintf("[%.5g, %.5g]", sb.Q1, sb.Q3),
				sb.Median/sa.Median, verdict)
		}
		for _, d := range perLayer {
			sa, inA := ra.Metrics[d.name]
			sb, inB := rb.Metrics[d.name]
			if d.exact && inA && inB && sa.Median != sb.Median {
				ok = false
				fmt.Fprintf(w, "%-14s %-34s count drift: a %.10g, b %.10g %s\n", wl.name, d.name, sa.Median, sb.Median, d.unit)
			}
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			ok = false
			fmt.Fprintf(w, "%-14s failed operations: a %d of %d, b %d of %d\n", wl.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		}
	}
	return ok, nil
}
