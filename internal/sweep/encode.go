package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hadooppreempt/internal/metrics"
)

// Encoders render a collapsed result deterministically: rows follow grid
// order, metric names are sorted, and floats use a fixed format, so runs
// at different -parallel levels — and merges of shard files in any order
// — produce byte-identical output.

func formatStat(v float64) string {
	return strconv.FormatFloat(v, 'g', 9, 64)
}

// WriteCSV writes the result as long-form CSV: one row per (cell group,
// metric) with summary-statistic columns.
func (c *Collapsed) WriteCSV(w io.Writer) error {
	names := c.MetricNames()
	cw := csv.NewWriter(w)
	header := append(append([]string{}, c.GroupAxes...),
		"metric", "count", "mean", "std", "min", "p50", "p95", "max")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, g := range c.Groups {
		for _, name := range names {
			s, ok := g.Metrics[name]
			if !ok {
				continue
			}
			row := make([]string, 0, len(header))
			for _, a := range c.GroupAxes {
				row = append(row, g.Labels[a])
			}
			row = append(row, name, strconv.Itoa(s.Count),
				formatStat(s.Mean), formatStat(s.Std), formatStat(s.Min),
				formatStat(s.P50), formatStat(s.P95), formatStat(s.Max))
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonAggregate is the serialized form of one cell group.
type jsonAggregate struct {
	Key     string                     `json:"key"`
	Labels  map[string]string          `json:"labels"`
	Count   int                        `json:"count"`
	Metrics map[string]metrics.Summary `json:"metrics"`
}

// WriteJSON writes the result as an indented JSON document.
func (c *Collapsed) WriteJSON(w io.Writer) error {
	out := struct {
		Seed  uint64          `json:"seed"`
		Cells []jsonAggregate `json:"cells"`
	}{Seed: c.Seed}
	for _, g := range c.Groups {
		out.Cells = append(out.Cells, jsonAggregate{
			Key:     g.Key,
			Labels:  g.Labels,
			Count:   g.Count,
			Metrics: g.Metrics,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteTable writes the result as an aligned text table with one row
// per cell group and one mean column per metric.
func (c *Collapsed) WriteTable(w io.Writer) error {
	names := c.MetricNames()
	var b strings.Builder
	for _, a := range c.GroupAxes {
		fmt.Fprintf(&b, "%-12s", a)
	}
	fmt.Fprintf(&b, "%6s", "runs")
	for _, n := range names {
		fmt.Fprintf(&b, " %18s", n)
	}
	b.WriteByte('\n')
	for _, g := range c.Groups {
		for _, a := range c.GroupAxes {
			fmt.Fprintf(&b, "%-12s", g.Labels[a])
		}
		fmt.Fprintf(&b, "%6d", g.Count)
		for _, n := range names {
			if s, ok := g.Metrics[n]; ok {
				fmt.Fprintf(&b, " %18.3f", s.Mean)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteSeries writes the result as plot-ready CSV: one block per
// metric, with the last surviving axis as the x column and one series
// column per combination of the remaining axes, cells holding group
// means. Blocks are introduced by a "# metric NAME" comment line and
// separated by a blank line — a layout gnuplot ("set datafile
// commentschars") and pandas consume without manual massaging.
func (c *Collapsed) WriteSeries(w io.Writer) error {
	if len(c.GroupAxes) == 0 {
		return fmt.Errorf("sweep: series format needs at least one surviving axis")
	}
	xAxis := c.GroupAxes[len(c.GroupAxes)-1]
	seriesAxes := c.GroupAxes[:len(c.GroupAxes)-1]
	seriesKey := func(g *Group) string {
		if len(seriesAxes) == 0 {
			return "mean"
		}
		var b strings.Builder
		for _, a := range seriesAxes {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(a)
			b.WriteByte('=')
			b.WriteString(g.Labels[a])
		}
		return b.String()
	}
	// Column and row orders follow the groups' grid order, so output is
	// deterministic at any parallelism and across merges.
	var xs, series []string
	seenX := make(map[string]int)
	seenSeries := make(map[string]int)
	type coord struct{ s, x int }
	cells := make(map[coord]*Group, len(c.Groups))
	for _, g := range c.Groups {
		x := g.Labels[xAxis]
		xi, ok := seenX[x]
		if !ok {
			xi = len(xs)
			seenX[x] = xi
			xs = append(xs, x)
		}
		sk := seriesKey(g)
		si, ok := seenSeries[sk]
		if !ok {
			si = len(series)
			seenSeries[sk] = si
			series = append(series, sk)
		}
		cells[coord{si, xi}] = g
	}
	names := c.MetricNames()
	for mi, name := range names {
		if mi > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# metric %s\n", name); err != nil {
			return err
		}
		cw := csv.NewWriter(w)
		if err := cw.Write(append([]string{xAxis}, series...)); err != nil {
			return err
		}
		row := make([]string, 1+len(series))
		for xi, x := range xs {
			row[0] = x
			for si := range series {
				row[1+si] = ""
				if g, ok := cells[coord{si, xi}]; ok {
					if s, ok := g.Metrics[name]; ok {
						row[1+si] = formatStat(s.Mean)
					}
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
	}
	return nil
}

// Write renders the result in the named format: "csv", "json", "table"
// or "series".
func (c *Collapsed) Write(w io.Writer, format string) error {
	switch format {
	case "csv":
		return c.WriteCSV(w)
	case "json":
		return c.WriteJSON(w)
	case "table":
		return c.WriteTable(w)
	case "series":
		return c.WriteSeries(w)
	default:
		return fmt.Errorf("sweep: unknown format %q (want table, csv, json or series)", format)
	}
}
