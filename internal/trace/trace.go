// Package trace records per-task execution intervals and renders them as
// ASCII Gantt charts, reproducing the schedule illustrations of Figure 1.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hadooppreempt/internal/mapreduce"
)

// SpanKind classifies what a task was doing during an interval.
type SpanKind int

// Span kinds.
const (
	// SpanRunning marks active execution.
	SpanRunning SpanKind = iota + 1
	// SpanSuspended marks time spent suspended (SIGTSTP .. SIGCONT).
	SpanSuspended
	// SpanCleanup marks a cleanup attempt after a kill.
	SpanCleanup
	// SpanWaiting marks time between submission and first launch.
	SpanWaiting
)

// String returns a short name.
func (k SpanKind) String() string {
	switch k {
	case SpanRunning:
		return "running"
	case SpanSuspended:
		return "suspended"
	case SpanCleanup:
		return "cleanup"
	case SpanWaiting:
		return "waiting"
	default:
		return fmt.Sprintf("SpanKind(%d)", int(k))
	}
}

// glyph is the character used to draw the span in a Gantt chart.
func (k SpanKind) glyph() byte {
	switch k {
	case SpanRunning:
		return '#'
	case SpanSuspended:
		return '='
	case SpanCleanup:
		return 'c'
	case SpanWaiting:
		return '.'
	default:
		return '?'
	}
}

// Span is one interval in a task's life.
type Span struct {
	Row   string // display row, e.g. "tl (attempt 1)"
	Kind  SpanKind
	Start time.Duration
	End   time.Duration
}

// Recorder accumulates spans. The zero value is ready to use.
type Recorder struct {
	spans []Span
	open  map[string]openSpan
}

type openSpan struct {
	kind  SpanKind
	start time.Duration
}

// Begin opens a span on the given row, closing any previously open span on
// that row at the same instant.
func (r *Recorder) Begin(row string, kind SpanKind, at time.Duration) {
	if r.open == nil {
		r.open = make(map[string]openSpan)
	}
	r.End(row, at)
	r.open[row] = openSpan{kind: kind, start: at}
}

// End closes the currently open span on the row, if any. Zero-length spans
// are dropped.
func (r *Recorder) End(row string, at time.Duration) {
	os, ok := r.open[row]
	if !ok {
		return
	}
	delete(r.open, row)
	if at > os.start {
		r.spans = append(r.spans, Span{Row: row, Kind: os.kind, Start: os.start, End: at})
	}
}

// Add appends a closed span directly.
func (r *Recorder) Add(s Span) {
	if s.End > s.Start {
		r.spans = append(r.spans, s)
	}
}

// CloseAll closes every open span at the given time.
func (r *Recorder) CloseAll(at time.Duration) {
	rows := make([]string, 0, len(r.open))
	for row := range r.open {
		rows = append(rows, row)
	}
	sort.Strings(rows)
	for _, row := range rows {
		r.End(row, at)
	}
}

// Spans returns a copy of the recorded spans, ordered by start time then
// row.
func (r *Recorder) Spans() []Span {
	out := append([]Span(nil), r.spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Row < out[j].Row
	})
	return out
}

// Rows returns the distinct row labels in first-appearance order.
func (r *Recorder) Rows() []string {
	seen := make(map[string]bool)
	var rows []string
	for _, s := range r.spans {
		if !seen[s.Row] {
			seen[s.Row] = true
			rows = append(rows, s.Row)
		}
	}
	return rows
}

// Makespan returns the end of the last span.
func (r *Recorder) Makespan() time.Duration {
	var end time.Duration
	for _, s := range r.spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// Gantt renders the recorded spans as an ASCII chart of the given width
// (number of time columns). Legend: '#' running, '=' suspended,
// 'c' cleanup, '.' waiting.
func (r *Recorder) Gantt(width int) string {
	if width <= 0 {
		width = 60
	}
	total := r.Makespan()
	if total == 0 || len(r.spans) == 0 {
		return "(empty trace)\n"
	}
	rows := r.Rows()
	labelWidth := 0
	for _, row := range rows {
		if len(row) > labelWidth {
			labelWidth = len(row)
		}
	}
	var b strings.Builder
	scale := float64(width) / float64(total)
	for _, row := range rows {
		line := make([]byte, width)
		for i := range line {
			line[i] = ' '
		}
		for _, s := range r.spans {
			if s.Row != row {
				continue
			}
			lo := int(float64(s.Start) * scale)
			hi := int(float64(s.End) * scale)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			for i := lo; i < hi; i++ {
				line[i] = s.Kind.glyph()
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", labelWidth, row, line)
	}
	fmt.Fprintf(&b, "%-*s  0%*s\n", labelWidth, "", width, formatDur(total))
	return b.String()
}

func formatDur(d time.Duration) string {
	return d.Round(100 * time.Millisecond).String()
}

// Listen subscribes a new Recorder to the JobTracker's task events and
// returns it. Rows are job names, except that each map task of a
// multi-map job gets its own row (its task ID), so parallel maps do not
// overwrite each other's spans; kill cleanups share a "cleanup" row.
// Call CloseAll once the run ends to close spans still open.
func Listen(jt *mapreduce.JobTracker) *Recorder {
	rec := &Recorder{}
	jt.AddListener(listener{rec: rec})
	return rec
}

// listener feeds engine events into a Recorder.
type listener struct {
	mapreduce.NopListener
	rec *Recorder
}

func (l listener) TaskStateChanged(t *mapreduce.Task, from, to mapreduce.TaskState, at time.Duration) {
	j := t.Job()
	row := j.Name()
	if len(j.MapTasks()) > 1 {
		row = t.IDString()
	}
	switch to {
	case mapreduce.TaskRunning:
		l.rec.Begin(row, SpanRunning, at)
	case mapreduce.TaskSuspended:
		l.rec.Begin(row, SpanSuspended, at)
	case mapreduce.TaskSucceeded, mapreduce.TaskFailed:
		l.rec.End(row, at)
	case mapreduce.TaskPending:
		if from.Live() || from == mapreduce.TaskKilled {
			l.rec.Begin(row, SpanWaiting, at)
		}
	}
}

func (l listener) CleanupSpan(task mapreduce.TaskID, tracker string, start, end time.Duration) {
	l.rec.Add(Span{Row: "cleanup", Kind: SpanCleanup, Start: start, End: end})
}
