package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// The CPU profile covers the layers below a cell, which the benchmark
// cannot call directly. Each sample is credited to the innermost frame
// of the repository's code on its stack, so time spent in the runtime
// (allocation, map access) on behalf of a module counts for that module.
// Samples with no repository frame at all (background GC, the scheduler,
// HTTP plumbing before a handler runs) are credited to noModule.

// noModule names samples with no repository frame.
const noModule = "runtime"

// repoModule returns the repository module a pprof function name
// belongs to: the package under hadooppreempt/internal/, "facade" for
// the root package, "perfbench" for this harness (package main), or ""
// for code outside the repository.
func repoModule(fn string) string {
	const internal = "hadooppreempt/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "hadooppreempt."):
		return "facade"
	case strings.HasPrefix(fn, "main."):
		return "perfbench"
	}
	return ""
}

// attribute returns the module credited with a stack, given innermost
// frame first.
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := repoModule(fn); m != "" {
			return m
		}
	}
	return noModule
}

// moduleCPU merges the given CPU profiles and sums their CPU time in
// nanoseconds per module credited by attribute. The toolchain's pprof
// symbolizes the stacks, inlined frames included.
func moduleCPU(profiles []string) (map[string]int64, error) {
	args := []string{"tool", "pprof", "-traces", "-sample_index=cpu", "-unit=ns", "-symbolize=none"}
	cmd := exec.Command("go", append(args, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(out)
}

// parseTraces reads the output of pprof -traces. After a header, each
// sample starts with a separator line, followed by its stack one frame
// a line, innermost first. The first frame's line starts with the
// sample's value, the others with blanks; inlined frames end in
// " (inline)". Lines whose first word ends in a colon are labels.
func parseTraces(out []byte) (map[string]int64, error) {
	cpu := make(map[string]int64)
	var stack []string
	var value int64
	inSample := false
	flush := func() {
		if len(stack) > 0 {
			cpu[attribute(stack)] += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		if !inSample || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimLeft(line, " ")
		if len(stack) == 0 {
			v, rest, _ := strings.Cut(frame, " ")
			if strings.HasSuffix(v, ":") {
				continue
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample value in %q: %v", line, err)
			}
			value, frame = int64(d), strings.TrimLeft(rest, " ")
		}
		stack = append(stack, strings.TrimSuffix(frame, " (inline)"))
	}
	flush()
	return cpu, sc.Err()
}
