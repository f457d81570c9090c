package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if s.Mean != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min, s.Max)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Errorf("Std = %v, want sqrt(2)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.P50 != 7 || s.P95 != 7 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
}

// TestSummarizeOffsetStability is the regression test for the
// catastrophic cancellation of the old sumSq/n - mean² variance: on a
// large offset, that formula subtracted two ~1e18 quantities and could
// return 0 (or noise) for a sample set with real spread. The two-pass
// form keeps full precision.
func TestSummarizeOffsetStability(t *testing.T) {
	const offset = 1e9
	s := Summarize([]float64{offset - 1, offset, offset + 1})
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.Std-want) > 1e-9 {
		t.Fatalf("Std at offset %g = %v, want %v", offset, s.Std, want)
	}
	// Near-identical large samples: std must be ~0, not the sqrt of a
	// cancellation residue (the old formula returned ~1e-6 here).
	s = Summarize([]float64{4.503599627370496e6, 4.503599627370496e6, 4.503599627370496e6})
	if s.Std != 0 {
		t.Fatalf("Std of identical samples = %v, want exactly 0", s.Std)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 10})
	if s.P50 != 5 {
		t.Fatalf("P50 of {0,10} = %v, want 5", s.P50)
	}
	if math.Abs(s.P95-9.5) > 1e-9 {
		t.Fatalf("P95 of {0,10} = %v, want 9.5", s.P95)
	}
}

func TestDurationSummary(t *testing.T) {
	s := DurationSummary([]time.Duration{time.Second, 3 * time.Second})
	if s.Mean != 2 {
		t.Fatalf("Mean = %v s, want 2", s.Mean)
	}
}

func TestSpreadWithin(t *testing.T) {
	if !SpreadWithin([]float64{100, 102, 98}, 0.05) {
		t.Fatal("samples within 5% should pass")
	}
	if SpreadWithin([]float64{100, 120}, 0.05) {
		t.Fatal("20% spread should fail")
	}
	if !SpreadWithin(nil, 0.05) {
		t.Fatal("empty samples trivially pass")
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Label: "susp", XLabel: "progress", YLabel: "sojourn"}
	s.Add(10, 85)
	s.Add(20, 86)
	if y, ok := s.YAt(10); !ok || y != 85 {
		t.Fatalf("YAt(10) = %v, %v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Fatal("YAt(99) should miss")
	}
	str := s.String()
	if len(str) == 0 || str[0] != '#' {
		t.Fatalf("String() = %q", str)
	}
}

// Property: summaries are order-invariant and bounded by min/max.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		s := Summarize(samples)
		reversed := make([]float64, len(samples))
		for i, v := range samples {
			reversed[len(samples)-1-i] = v
		}
		s2 := Summarize(reversed)
		if s != s2 {
			return false
		}
		return s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Min <= s.P50 && s.P50 <= s.Max &&
			s.P50 <= s.P95 && s.P95 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
