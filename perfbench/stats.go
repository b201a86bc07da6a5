package main

import (
	"math"
	"sort"
)

// sample is a set of measurements in one unit.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// pct returns the p-th percentile (0 < p < 100) of s by nearest rank: the
// smallest value with at least p% of the samples at or below it. An
// empty sample yields 0.
func (s sample) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	ss := s.sorted()
	return ss[rankOf(len(ss), p)]
}

// rankOf is the zero-based nearest-rank index of the p-th percentile of
// n sorted samples.
func rankOf(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func (s sample) median() float64 { return s.pct(50) }

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - 1 - rankOf(n, p) }

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail picks the highest candidate percentile that has at least ten
// samples beyond it, so a tail figure is never one or two outliers. It
// returns the chosen percentile and its value; ok is false when even
// the median lacks ten samples beyond it.
func (s sample) tail() (p, v float64, ok bool) {
	for _, c := range tailPercentiles {
		if beyond(len(s), c) >= 10 {
			return c, s.pct(c), true
		}
	}
	return 0, 0, false
}

// validAt reports whether the p-th percentile of n samples has at least
// ten samples beyond it.
func validAt(n int, p float64) bool { return beyond(n, p) >= 10 }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
