// Package stats provides the small numeric and rendering helpers the
// experiment and benchmark harnesses use: means, geometric means,
// quantiles (both exact-over-samples and bucket-resolved), and
// fixed-width text tables that mirror the paper's figures as rows/series.
//
// This package is the single home for quantile math. The loadgen and
// dracod-replay latency percentiles and the server's fixed-bucket
// histogram quantiles all resolve through here; differential tests pin
// the helpers against the original inline implementations on shared
// fixtures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Geomean returns the geometric mean (0 for empty input; panics on
// non-positive values, which would indicate a broken measurement).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Real is the numeric constraint for quantile helpers: the sample types
// the harnesses actually use (ns counts, durations, float ratios).
type Real interface {
	~int | ~int32 | ~int64 | ~float64
}

// QuantileSorted returns the nearest-rank q-quantile of already-sorted
// xs using the convention every harness in this repo used inline before
// it was deduplicated here: xs[int(q*(len(xs)-1))]. q is clamped to
// [0,1]; the zero value is returned for empty input.
func QuantileSorted[T Real](xs []T, q float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return xs[int(q*float64(len(xs)-1))]
}

// Quantile sorts a copy of xs and returns its nearest-rank q-quantile.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// Median returns the nearest-rank median (0 for empty input).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// BucketQuantileIndex returns the index of the bucket holding the
// q-quantile sample, given per-bucket counts, or -1 when all counts are
// zero. The rank convention (rank = int(q*total), clamped to total-1;
// the answer is the first bucket where the cumulative count exceeds the
// rank) matches the server histograms' original inline walk, which a
// differential test pins. q is clamped to [0,1].
func BucketQuantileIndex(counts []uint64, q float64) int {
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

// Table is a labeled grid of cells rendered in fixed-width text.
type Table struct {
	Title   string
	Columns []string
	rows    []row
}

type row struct {
	label string
	cells []string
}

// NewTable creates a table with the given column headers (the first column
// is the row label).
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(label string, cells ...string) {
	t.rows = append(t.rows, row{label: label, cells: cells})
}

// AddFloats appends a row of float cells rendered with 3 decimals.
func (t *Table) AddFloats(label string, values ...float64) {
	cells := make([]string, len(values))
	for i, v := range values {
		cells[i] = fmt.Sprintf("%.3f", v)
	}
	t.AddRow(label, cells...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	labelW := len("workload")
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r.cells {
			if i < len(colW) && len(c) > colW[i] {
				colW[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, " %*s", colW[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.label)
		for i, c := range r.cells {
			w := 8
			if i < len(colW) {
				w = colW[i]
			}
			fmt.Fprintf(&b, " %*s", w, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values with the label column
// first; cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(csvEscape(r.label))
		for _, c := range r.cells {
			b.WriteByte(',')
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}
