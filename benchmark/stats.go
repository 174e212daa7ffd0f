package main

// The benchmark carries its own order statistics so that pruning
// internal/stats or internal/bench never breaks it.

import (
	"math"
	"slices"
)

// median returns the median of v without reordering it (0 for no values).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileOf returns the q-quantile of an ascending sample by linear
// interpolation between the two closest ranks (0 for an empty sample).
func quantileOf[T uint32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := q * float64(len(sorted)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return float64(sorted[lo]) + (r-float64(lo))*(float64(sorted[hi])-float64(sorted[lo]))
}

// ratio is a/b, or 0 when b is 0: a share of nothing is reported as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
