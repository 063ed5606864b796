package main

import (
	"math"
	"sort"
)

// Sample is one metric of one workload as the record file keeps it: the
// median and quartiles of N trials. Exact marks a count the program
// produces itself, which must repeat exactly for a seed.
type Sample struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	Exact  bool    `json:"exact,omitempty"`
}

// IQRFrac is the distance between the quartiles as a share of the median.
func (s Sample) IQRFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func summarize(vals []float64, unit string) Sample {
	q1, med, q3 := quartiles(vals)
	return Sample{N: len(vals), Median: med, Q1: q1, Q3: q3, Unit: unit}
}

// quartiles cuts like Python's statistics.quantiles(vals, n=4), the rule
// the benchmark contract measures spread with; fewer than two values
// collapse onto the single value.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// percentile returns the nearest-rank p-th percentile (p in 0..100).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	k := int(math.Ceil(p/100*float64(len(d)))) - 1
	if k < 0 {
		k = 0
	}
	return d[k]
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
