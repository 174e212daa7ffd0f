package server

import (
	"math/rand"
	"testing"
	"time"
)

// refHistQuantile is a verbatim copy of the pre-refactor
// Histogram.Quantile bucket walk, kept as the reference the shared
// stats.BucketQuantileIndex path must reproduce exactly.
func refHistQuantile(counts []uint64, total uint64, q float64) uint64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	bound := uint64(histBaseNanos)
	for i := 0; i < histBuckets; i++ {
		seen += counts[i]
		if seen > rank {
			return bound >> 1
		}
		bound <<= 1
	}
	return bound >> 1
}

func TestHistogramQuantileMatchesOriginal(t *testing.T) {
	fixtures := [][]time.Duration{
		{},
		{0},
		{100 * time.Nanosecond},
		{time.Microsecond, 2 * time.Microsecond, 40 * time.Microsecond},
		{time.Millisecond, time.Millisecond, time.Second, 10 * time.Second},
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(500)
		fix := make([]time.Duration, n)
		for i := range fix {
			fix[i] = time.Duration(rng.Int63n(int64(20 * time.Second)))
		}
		fixtures = append(fixtures, fix)
	}
	for fi, fix := range fixtures {
		var h Histogram
		for _, d := range fix {
			h.Observe(d)
		}
		counts := make([]uint64, histBuckets)
		for i := range counts {
			counts[i] = h.buckets[i].Load()
		}
		for _, q := range []float64{-0.5, 0, 0.5, 0.9, 0.99, 1, 1.5} {
			got := h.Quantile(q)
			want := refHistQuantile(counts, h.Count(), q)
			if got != want {
				t.Errorf("fixture %d: Histogram.Quantile(%v) = %d, original = %d", fi, q, got, want)
			}
		}
	}
}
