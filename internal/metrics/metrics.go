// Package metrics aggregates experiment measurements: sojourn times,
// makespans, swap traffic, and summary statistics over repeated runs.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary holds order statistics over a set of samples.
type Summary struct {
	Count int
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	Std   float64
}

// Summarize computes statistics over samples. An empty input yields a zero
// Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	n := float64(len(sorted))
	mean := sum / n
	// Two-pass variance: accumulating deviations from the mean avoids
	// the catastrophic cancellation of sumSq/n - mean² when samples sit
	// on a large offset. Summing in sorted order keeps the result
	// independent of sample arrival order, so aggregates merged from
	// shards reproduce the single-pass value bit for bit.
	var sumSq float64
	for _, v := range sorted {
		d := v - mean
		sumSq += d * d
	}
	variance := sumSq / n
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count: len(sorted),
		Mean:  mean,
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   percentile(sorted, 0.50),
		P95:   percentile(sorted, 0.95),
		Std:   math.Sqrt(variance),
	}
}

// percentile interpolates the p-quantile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// DurationSummary is Summarize over durations, reported in seconds.
func DurationSummary(ds []time.Duration) Summary {
	samples := make([]float64, len(ds))
	for i, d := range ds {
		samples[i] = d.Seconds()
	}
	return Summarize(samples)
}

// SpreadWithin reports whether all samples are within frac of the mean,
// the property the paper states for its error bars ("minimum and maximum
// values measured are within 5% of the average").
func SpreadWithin(samples []float64, frac float64) bool {
	s := Summarize(samples)
	if s.Count == 0 || s.Mean == 0 {
		return true
	}
	return s.Max <= s.Mean*(1+frac) && s.Min >= s.Mean*(1-frac)
}

// Series is a labelled sequence of (x, y) points, one experiment curve.
type Series struct {
	Label  string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// String formats the series as aligned rows.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s vs %s)\n", s.Label, s.YLabel, s.XLabel)
	for i := range s.X {
		fmt.Fprintf(&b, "%10.2f %12.3f\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// YAt returns the y value for the given x, if present.
func (s *Series) YAt(x float64) (float64, bool) {
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i], true
		}
	}
	return 0, false
}
