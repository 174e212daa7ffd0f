package stats

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Shared fixtures for the differential tests: the quantile math used to
// be reimplemented inline in a load generator since removed (pct over
// sorted []time.Duration), cmd/dracod/main.go (percentile), and
// internal/server/metrics.go (bucket rank walks). These fixtures pin
// the deduplicated helpers to the originals' outputs.
var quantileFixtures = [][]int64{
	{},
	{42},
	{1, 2},
	{5, 5, 5, 5},
	{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	{100, 200, 250, 1000, 10000, 10001},
	{0, 0, 0, 1, 1_000_000_000},
}

// refPct is a verbatim copy of the removed load generator's percentile
// (over sorted samples): i := int(p * float64(len(all)-1)).
func refPct(all []int64, p float64) int64 {
	if len(all) == 0 {
		return 0
	}
	i := int(p * float64(len(all)-1))
	return all[i]
}

// refPercentile is a verbatim copy of the original dracod replay
// percentile over sorted durations.
func refPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func TestQuantileSortedMatchesLoadgenPct(t *testing.T) {
	qs := []float64{0, 0.25, 0.5, 0.50, 0.95, 0.99, 1}
	for _, fix := range quantileFixtures {
		for _, q := range qs {
			got := QuantileSorted(fix, q)
			want := refPct(fix, q)
			if got != want {
				t.Errorf("QuantileSorted(%v, %v) = %d, load generator pct = %d", fix, q, got, want)
			}
		}
	}
	// Random fixtures too: the convention must hold on arbitrary sorted data.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(1 << 30)
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		q := rng.Float64()
		if got, want := QuantileSorted(xs, q), refPct(xs, q); got != want {
			t.Fatalf("trial %d: QuantileSorted(n=%d, q=%v) = %d, want %d", trial, n, q, got, want)
		}
	}
}

func TestQuantileSortedMatchesDracodPercentile(t *testing.T) {
	for _, fix := range quantileFixtures {
		ds := make([]time.Duration, len(fix))
		for i, v := range fix {
			ds[i] = time.Duration(v)
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got, want := QuantileSorted(ds, q), refPercentile(ds, q); got != want {
				t.Errorf("QuantileSorted(%v, %v) = %v, dracod percentile = %v", ds, q, got, want)
			}
		}
	}
}

// refBucketWalk is a verbatim copy of the original server histogram rank
// walk, generalized over the bucket count: returns the index where the
// cumulative count first exceeds rank = int(q*total) (clamped), or -1
// when empty.
func refBucketWalk(counts []uint64, q float64) int {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return -1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > rank {
			return i
		}
	}
	return len(counts) - 1
}

func TestBucketQuantileIndexMatchesServerWalk(t *testing.T) {
	fixtures := [][]uint64{
		{},
		{0, 0, 0},
		{1},
		{0, 5, 0, 0},
		{1, 1, 1, 1, 1, 1},
		{1000, 1, 0, 0, 1},
		{0, 0, 0, 0, 7},
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		counts := make([]uint64, 1+rng.Intn(26))
		for i := range counts {
			if rng.Intn(3) > 0 {
				counts[i] = uint64(rng.Intn(10000))
			}
		}
		fixtures = append(fixtures, counts)
	}
	for _, counts := range fixtures {
		for _, q := range []float64{-1, 0, 0.5, 0.9, 0.99, 1, 2} {
			if got, want := BucketQuantileIndex(counts, q), refBucketWalk(counts, q); got != want {
				t.Errorf("BucketQuantileIndex(%v, %v) = %d, server walk = %d", counts, q, got, want)
			}
		}
	}
}
