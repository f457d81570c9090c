package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode judges by.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchSpec() (*benchSpec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// steadiness runs two sets of n untraced runs of each workload (or of
// the named one) as child processes, interleaved and alternating which
// set goes first, every run with its own seed. It prints every run, and
// for each end-to-end metric each set's quartiles and spread
// (interquartile range over median), the spread of all 2n runs, and how
// far the second set's median moved from the first's, either way,
// against the bound BENCHMARK.json fixes. Machine speed drifts over minutes, so one run's
// numbers alone prove nothing.
func steadiness(name string, n int, baseSeed uint64, seconds float64, stdout, stderr io.Writer) int {
	if n < 2 {
		fmt.Fprintln(stderr, "perfbench: --steady needs at least 2 runs a set for quartiles")
		return 2
	}
	spec, err := readBenchSpec()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := workloadNames()
	if name != "" {
		if _, ok := workloadByName(name); !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		names = []string{name}
	}
	code := 0
	for _, wl := range names {
		var sets [2][]map[string]metric
		fmt.Fprintf(stdout, "\n%s: two sets of %d runs, %gs each\n", wl, n, seconds)
		for i := range n {
			for k := range 2 {
				set := k ^ i&1
				seed := baseSeed + uint64(set*n+i)
				res, err := childRun(exe, wl, seed, seconds)
				if err != nil {
					fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", wl, seed, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(stderr, "perfbench: %s seed %d: %d of %d failed\n", wl, seed, res.Failed, res.Attempted)
					code = 1
				}
				sets[set] = append(sets[set], res.Metrics)
				fmt.Fprintf(stdout, "  set %c seed %-6d", 'A'+set, seed)
				for _, e := range spec.EndToEnd {
					fmt.Fprintf(stdout, " %s=%.6g", e.Name, res.Metrics[e.Name].Value)
				}
				fmt.Fprintln(stdout)
			}
		}
		fmt.Fprintf(stdout, "%-12s %5s | %-36s | %-36s | %-18s | %s\n", "metric", "bound",
			"set A: q1 median q3 (spread)", "set B: q1 median q3 (spread)", "all runs: spread", "B median vs A")
		for _, e := range spec.EndToEnd {
			values := func(ms []map[string]metric) []float64 {
				var vs []float64
				for _, m := range ms {
					vs = append(vs, m[e.Name].Value)
				}
				return vs
			}
			var med [2]float64
			var cols [2]string
			spreads := make([]float64, 3)
			for s := range 2 {
				q1, q2, q3 := quartiles(values(sets[s]))
				med[s], spreads[s] = q2, ratio(q3-q1, q2)
				cols[s] = fmt.Sprintf("%.5g %.5g %.5g (%.1f%%)", q1, q2, q3, 100*spreads[s])
			}
			q1, q2, q3 := quartiles(append(values(sets[0]), values(sets[1])...))
			spreads[2] = ratio(q3-q1, q2)
			// Both sets run the same code, so a move either way is
			// the same disagreement.
			moved := ratio(med[1]-med[0], med[0])
			verdict := "ok"
			if slices.Max(spreads) > e.Bound/3 {
				verdict = "SPREAD>bound/3"
			}
			if slices.Max(spreads) > e.Bound {
				verdict = "SPREAD>bound"
			}
			if math.Abs(moved) > e.Bound {
				verdict = "MOVED"
			}
			fmt.Fprintf(stdout, "%-12s %5.2f | %-36s | %-36s | %17.1f%% | %+6.1f%% %s\n",
				e.Name, e.Bound, cols[0], cols[1], 100*spreads[2], 100*moved, verdict)
		}
	}
	return code
}

// childRun runs one untraced benchmark run in a child process and
// decodes its result line.
func childRun(exe, wl string, seed uint64, seconds float64) (*result, error) {
	cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	// A child must not outlive an interrupted steadiness run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, bytes.TrimSpace(errb.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, err
	}
	return &res, nil
}
