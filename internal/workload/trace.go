package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"hadooppreempt/internal/sim"
)

// SWIM trace files (the Facebook workload samples published with Chen et
// al.'s Statistical Workload Injector for MapReduce) are line-oriented:
// one job per line with whitespace-separated fields
//
//	job_id  submit_time_s  inter_arrival_s  input_bytes  shuffle_bytes  output_bytes
//
// Times are seconds (fractions allowed), sizes are bytes. Blank lines
// and lines starting with '#' are ignored; extra trailing fields are
// tolerated (some trace variants append per-job metadata).

// TraceJob is one job of a parsed SWIM trace.
type TraceJob struct {
	// ID is the trace's job identifier (unique within a trace).
	ID string
	// SubmitAt is the job's absolute submission time.
	SubmitAt time.Duration
	// Interarrival is the gap to the previous submission, as recorded in
	// the trace.
	Interarrival time.Duration
	// InputBytes, ShuffleBytes and OutputBytes are the per-stage data
	// volumes. The map-only replayer drives work from InputBytes; the
	// shuffle and output columns are parsed for completeness.
	InputBytes   int64
	ShuffleBytes int64
	OutputBytes  int64
}

// ParseTrace reads a SWIM-format trace. Jobs are returned in file
// order; IDs must be unique and times and sizes non-negative.
func ParseTrace(r io.Reader) ([]TraceJob, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var jobs []TraceJob
	seen := make(map[string]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 6 {
			return nil, fmt.Errorf("workload: trace line %d: %d fields, want at least 6", lineNo, len(fields))
		}
		id := fields[0]
		if seen[id] {
			return nil, fmt.Errorf("workload: trace line %d: duplicate job id %q", lineNo, id)
		}
		seen[id] = true
		submit, err := parseSeconds(fields[1])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: submit time: %w", lineNo, err)
		}
		gap, err := parseSeconds(fields[2])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: inter-arrival: %w", lineNo, err)
		}
		var sizes [3]int64
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseInt(fields[3+i], 10, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("workload: trace line %d: bad byte count %q", lineNo, fields[3+i])
			}
			sizes[i] = v
		}
		jobs = append(jobs, TraceJob{
			ID:           id,
			SubmitAt:     submit,
			Interarrival: gap,
			InputBytes:   sizes[0],
			ShuffleBytes: sizes[1],
			OutputBytes:  sizes[2],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace: %w", err)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("workload: trace holds no jobs")
	}
	return jobs, nil
}

// ReadTraceFile parses the SWIM trace at the given path.
func ReadTraceFile(path string) ([]TraceJob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	jobs, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return jobs, nil
}

// SynthesizeTrace generates an n-job SWIM-style trace from the
// Facebook-like default mix (DefaultConfig's classes and skew),
// deterministic for a given seed. It exists so benchmarks and smoke
// tests can exercise trace-scale replay without shipping a real trace
// file: the result round-trips through the replay backend exactly like
// a parsed trace, and two processes calling it with the same arguments
// hold byte-identical traces (so distributed workers pass the
// fingerprint check).
func SynthesizeTrace(n int, seed uint64) ([]TraceJob, error) {
	cfg := DefaultConfig()
	cfg.Count = n
	specs, err := Generate(cfg, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	jobs := make([]TraceJob, len(specs))
	var prev time.Duration
	for i, s := range specs {
		jobs[i] = TraceJob{
			ID:           s.Conf.Name,
			SubmitAt:     s.SubmitAt,
			Interarrival: s.SubmitAt - prev,
			InputBytes:   s.InputBytes,
		}
		prev = s.SubmitAt
	}
	return jobs, nil
}

// parseSeconds converts a trace's seconds field to a duration. It
// rejects negative and non-finite values, and seconds whose nanoseconds
// do not fit in an int64.
func parseSeconds(s string) (time.Duration, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad seconds value %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative seconds value %q", s)
	}
	// Every float64 below 2^63 converts to an int64.
	ns := v * float64(time.Second)
	if ns >= 1<<63 {
		return 0, fmt.Errorf("seconds value %q overflows a duration", s)
	}
	return time.Duration(ns), nil
}
