// Package config parses the static configuration files that drive the
// dummy scheduler — §III-B: "a new scheduling component for Hadoop ...
// which dictates task eviction according to static configuration files.
// This allows to specify, using a series of simple triggers, which
// jobs/tasks are run in the cluster and which are preempted."
//
// The format is line-oriented; '#' starts a comment. Example:
//
//	primitive susp
//	input /input/tl 512M
//	input /input/th 512M
//	job tl /input/tl priority=0 rate=6.5e6 mem=0
//	job th /input/th priority=10 rate=6.5e6 mem=2G
//	submit tl
//	on progress tl 0.5 submit th
//	on progress tl 0.5 preempt tl
//	on complete th restore tl
package config

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
)

// InputSpec declares a synthetic HDFS input file.
type InputSpec struct {
	Path string
	Size int64
}

// RuleAction is what a trigger does.
type RuleAction int

// Rule actions.
const (
	// ActionSubmit submits the named job.
	ActionSubmit RuleAction = iota + 1
	// ActionPreempt applies the experiment's primitive to the named
	// job's first map task.
	ActionPreempt
	// ActionRestore undoes the preemption (resume for suspend-like
	// primitives).
	ActionRestore
)

// String names the action.
func (a RuleAction) String() string {
	switch a {
	case ActionSubmit:
		return "submit"
	case ActionPreempt:
		return "preempt"
	case ActionRestore:
		return "restore"
	default:
		return fmt.Sprintf("RuleAction(%d)", int(a))
	}
}

// Rule is one trigger line.
type Rule struct {
	// Event and EventJob select the condition ("progress tl 0.5" or
	// "complete th").
	Event     string // "progress" or "complete" or "submit"
	EventJob  string
	Threshold float64 // progress only
	// Action and ActionJob are the effect.
	Action    RuleAction
	ActionJob string
}

// Experiment is a parsed configuration file.
type Experiment struct {
	Primitive core.Primitive
	Inputs    []InputSpec
	Jobs      map[string]mapreduce.JobConf
	JobOrder  []string
	// Submits lists jobs submitted at time zero.
	Submits []string
	Rules   []Rule
}

// Parse reads an experiment description.
func Parse(r io.Reader) (*Experiment, error) {
	exp := &Experiment{
		Primitive: core.Suspend,
		Jobs:      make(map[string]mapreduce.JobConf),
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if err := exp.parseLine(fields); err != nil {
			return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if len(exp.Submits) == 0 {
		return nil, fmt.Errorf("config: no job submitted at start")
	}
	return exp, nil
}

func (e *Experiment) parseLine(fields []string) error {
	switch fields[0] {
	case "primitive":
		if len(fields) != 2 {
			return fmt.Errorf("usage: primitive <wait|kill|susp|checkpoint>")
		}
		p, err := core.ParsePrimitive(fields[1])
		if err != nil {
			return err
		}
		e.Primitive = p
		return nil

	case "input":
		if len(fields) != 3 {
			return fmt.Errorf("usage: input <path> <size>")
		}
		size, err := ParseBytes(fields[2])
		if err != nil {
			return err
		}
		e.Inputs = append(e.Inputs, InputSpec{Path: fields[1], Size: size})
		return nil

	case "job":
		if len(fields) < 3 {
			return fmt.Errorf("usage: job <name> <input-path> [key=value ...]")
		}
		name := fields[1]
		if _, dup := e.Jobs[name]; dup {
			return fmt.Errorf("job %q defined twice", name)
		}
		conf := mapreduce.JobConf{
			Name:         name,
			InputPath:    fields[2],
			MapParseRate: 6.5e6,
		}
		for _, kv := range fields[3:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad option %q, want key=value", kv)
			}
			switch k {
			case "priority":
				p, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("bad priority %q", v)
				}
				conf.Priority = p
			case "rate":
				r, err := strconv.ParseFloat(v, 64)
				if err != nil || !(r > 0) || math.IsInf(r, 1) {
					return fmt.Errorf("bad rate %q", v)
				}
				conf.MapParseRate = r
			case "mem":
				m, err := ParseBytes(v)
				if err != nil {
					return err
				}
				conf.ExtraMemoryBytes = m
			case "pool":
				conf.Pool = v
			case "reduces":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return fmt.Errorf("bad reduces %q", v)
				}
				conf.NumReduces = n
			default:
				return fmt.Errorf("unknown job option %q", k)
			}
		}
		e.Jobs[name] = conf
		e.JobOrder = append(e.JobOrder, name)
		return nil

	case "submit":
		if len(fields) != 2 {
			return fmt.Errorf("usage: submit <job>")
		}
		if _, ok := e.Jobs[fields[1]]; !ok {
			return fmt.Errorf("submit of undefined job %q", fields[1])
		}
		e.Submits = append(e.Submits, fields[1])
		return nil

	case "on":
		return e.parseRule(fields[1:])

	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

func (e *Experiment) parseRule(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("usage: on <progress|complete|submit> <job> [threshold] <action> <job>")
	}
	rule := Rule{Event: fields[0], EventJob: fields[1]}
	rest := fields[2:]
	switch rule.Event {
	case "progress":
		if len(rest) < 3 {
			return fmt.Errorf("usage: on progress <job> <threshold> <action> <job>")
		}
		th, err := strconv.ParseFloat(rest[0], 64)
		if err != nil || !(th > 0 && th < 1) {
			return fmt.Errorf("bad threshold %q (want 0 < r < 1)", rest[0])
		}
		rule.Threshold = th
		rest = rest[1:]
	case "complete", "submit":
	default:
		return fmt.Errorf("unknown event %q", rule.Event)
	}
	if len(rest) != 2 {
		return fmt.Errorf("trailing rule needs <action> <job>")
	}
	switch rest[0] {
	case "submit":
		rule.Action = ActionSubmit
	case "preempt":
		rule.Action = ActionPreempt
	case "restore":
		rule.Action = ActionRestore
	default:
		return fmt.Errorf("unknown action %q", rest[0])
	}
	rule.ActionJob = rest[1]
	if _, ok := e.Jobs[rule.ActionJob]; !ok {
		return fmt.Errorf("rule targets undefined job %q", rule.ActionJob)
	}
	if _, ok := e.Jobs[rule.EventJob]; !ok {
		return fmt.Errorf("rule watches undefined job %q", rule.EventJob)
	}
	e.Rules = append(e.Rules, rule)
	return nil
}

// ParseBytes parses sizes like "512M", "2G", "100K", "42" (bytes) or
// "2.5G". It rejects negative, non-finite and int64-overflowing sizes.
func ParseBytes(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K', 'k':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'M', 'm':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'G', 'g':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("bad size %q", s)
	}
	// Every float64 below 2^63 converts to an int64.
	b := v * float64(mult)
	if b >= 1<<63 {
		return 0, fmt.Errorf("size %q overflows 64 bits", s)
	}
	return int64(b), nil
}
