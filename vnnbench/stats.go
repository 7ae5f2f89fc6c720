package main

import (
	"fmt"
	"math"
	"sort"
)

// tailPercentiles are the candidates for a timing's tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// timing summarises latency samples as the benchmark reports them: the
// median, and the highest percentile that has at least ten samples
// beyond it. With fewer than twenty samples no percentile qualifies and
// the tail is the maximum (tailP = 100).
type timing struct {
	n     int
	sum   float64
	p50   float64
	tailP float64
	tail  float64
}

func summarize(samples []float64) timing {
	if len(samples) == 0 {
		return timing{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{n: len(s), p50: median(s), tailP: 100, tail: s[len(s)-1]}
	for _, x := range s {
		t.sum += x
	}
	for _, p := range tailPercentiles {
		if float64(len(s))*(100-p)/100 >= 10 {
			t.tailP, t.tail = p, percentile(s, p)
			break
		}
	}
	return t
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func percentile99(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, 99)
}

// median is the middle sample, or the mean of the middle two.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailName names the tail: "p99" and the like, or "max" when no
// percentile has ten samples beyond it.
func (t timing) tailName() string {
	if t.tailP == 100 {
		return "max"
	}
	return fmt.Sprintf("p%g", t.tailP)
}
