package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/trace"
)

const sampleConfig = `
# The paper's two-job experiment at r = 50%.
primitive susp
input /input/tl 512M
input /input/th 512M
job tl /input/tl priority=0 rate=6.5e6
job th /input/th priority=10 rate=6.5e6 mem=0
submit tl
on progress tl 0.5 submit th
on progress tl 0.5 preempt tl
on complete th restore tl
`

func TestParseSample(t *testing.T) {
	exp, err := Parse(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Primitive != core.Suspend {
		t.Fatalf("primitive = %v, want susp", exp.Primitive)
	}
	if len(exp.Inputs) != 2 || exp.Inputs[0].Size != 512<<20 {
		t.Fatalf("inputs = %+v", exp.Inputs)
	}
	if len(exp.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(exp.Jobs))
	}
	if exp.Jobs["th"].Priority != 10 {
		t.Fatalf("th priority = %d", exp.Jobs["th"].Priority)
	}
	if len(exp.Submits) != 1 || exp.Submits[0] != "tl" {
		t.Fatalf("submits = %v", exp.Submits)
	}
	if len(exp.Rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(exp.Rules))
	}
	if exp.Rules[0].Threshold != 0.5 || exp.Rules[0].Action != ActionSubmit {
		t.Fatalf("rule 0 = %+v", exp.Rules[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive": "frobnicate x",
		"bad primitive":     "primitive banana\njob a /x\nsubmit a",
		"bad size":          "input /x 12Q\njob a /x\nsubmit a",
		"dup job":           "job a /x\njob a /y\nsubmit a",
		"undefined submit":  "submit ghost",
		"bad threshold":     "job a /x\nsubmit a\non progress a 1.5 preempt a",
		"undefined target":  "job a /x\nsubmit a\non progress a 0.5 preempt ghost",
		"no submit":         "job a /x",
		"bad option":        "job a /x bogus=1\nsubmit a",
		"bad rate":          "job a /x rate=-2\nsubmit a",
		"NaN size":          "input /x NaN\njob a /x\nsubmit a",
		"overflowing size":  "input /x 1e30G\njob a /x\nsubmit a",
		"NaN rate":          "job a /x rate=NaN\nsubmit a",
		"infinite rate":     "job a /x rate=Inf\nsubmit a",
		"infinite mem":      "job a /x mem=Inf\nsubmit a",
		"NaN threshold":     "job a /x\njob b /x\nsubmit a\non progress a NaN submit b",
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(text)); err == nil {
				t.Fatalf("config should be rejected:\n%s", text)
			}
		})
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"512M": 512 << 20,
		"2G":   2 << 30,
		"2.5G": 2560 << 20,
		"16k":  16 << 10,
		"1024": 1024,
		"0":    0,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-5", "12Q4", "NaN", "Inf", "+Inf", "-Inf", "1e30G", "9223372036854775808"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) should fail", bad)
		}
	}
}

// formatBytes renders a byte count in the syntax ParseBytes accepts.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dG", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return strconv.FormatInt(b, 10)
	}
}

func TestFormatBytesRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1024, 512 << 20, 2 << 30, 12345} {
		got, err := ParseBytes(formatBytes(v))
		if err != nil || got != v {
			t.Errorf("round trip %d -> %q -> %d, %v", v, formatBytes(v), got, err)
		}
	}
}

func TestRunnerExecutesExperiment(t *testing.T) {
	exp, err := Parse(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := mapreduce.NewCluster(mapreduce.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(exp, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	jobs := runner.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	tl, th := jobs["tl"], jobs["th"]
	if tl.State() != mapreduce.JobSucceeded || th.State() != mapreduce.JobSucceeded {
		t.Fatalf("states: tl=%v th=%v", tl.State(), th.State())
	}
	// tl was suspended for th: th finishes first.
	if th.CompletedAt() >= tl.CompletedAt() {
		t.Fatalf("th (%v) should finish before resumed tl (%v)",
			th.CompletedAt(), tl.CompletedAt())
	}
	// Trace should show tl suspended.
	gantt := runner.Trace().Gantt(60)
	if !strings.Contains(gantt, "=") {
		t.Fatalf("gantt missing suspension:\n%s", gantt)
	}
	if tlTask := tl.MapTasks()[0]; tlTask.Suspensions() != 1 {
		t.Fatalf("tl suspensions = %d, want 1", tlTask.Suspensions())
	}
}

func TestRunnerKillPrimitive(t *testing.T) {
	text := strings.Replace(sampleConfig, "primitive susp", "primitive kill", 1)
	exp, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := mapreduce.NewCluster(mapreduce.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(exp, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	tl := runner.Jobs()["tl"]
	if tl.MapTasks()[0].Attempts() != 2 {
		t.Fatalf("tl attempts = %d, want 2 under kill", tl.MapTasks()[0].Attempts())
	}
}

// TestRunnerGanttRowPerMapTask runs a two-block tl on two slots: each of
// its map tasks gets its own Gantt row, so the second map's running span
// is not overwritten by the first's.
func TestRunnerGanttRowPerMapTask(t *testing.T) {
	text := strings.Replace(sampleConfig, "input /input/tl 512M", "input /input/tl 1G", 1)
	exp, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.DefaultClusterConfig()
	cfg.Node.MapSlots = 2
	cluster, err := mapreduce.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	runner, err := NewRunner(exp, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	maps := runner.Jobs()["tl"].MapTasks()
	if len(maps) != 2 {
		t.Fatalf("tl has %d map tasks, want 2", len(maps))
	}
	running := make(map[string]bool)
	for _, s := range runner.Trace().Spans() {
		if s.Kind == trace.SpanRunning {
			running[s.Row] = true
		}
	}
	for _, m := range maps {
		if !running[m.IDString()] {
			t.Errorf("no running span on row %s:\n%s", m.IDString(), runner.Trace().Gantt(60))
		}
	}
}

// TestRunnerOOMKillOfTheFaultingTaskFailsTheJob runs a job whose task
// needs more memory than the node's RAM and swap together. The OOM
// killer picks the faulting task itself on every attempt, and the job
// must end FAILED once its attempts run out.
func TestRunnerOOMKillOfTheFaultingTaskFailsTheJob(t *testing.T) {
	exp, err := Parse(strings.NewReader("input /input/big 64M\njob big /input/big mem=16G\nsubmit big\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.DefaultClusterConfig()
	cluster, err := mapreduce.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	runner, err := NewRunner(exp, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	big := runner.Jobs()["big"]
	if big.State() != mapreduce.JobFailed {
		t.Fatalf("job state %v, want FAILED", big.State())
	}
	if got := big.MapTasks()[0].Attempts(); got != cfg.Engine.MaxTaskAttempts {
		t.Fatalf("map task made %d attempts, want %d", got, cfg.Engine.MaxTaskAttempts)
	}
}

// FuzzParse feeds arbitrary text to the configuration parser. Parse must
// never panic, and an experiment it accepts must hold only values a
// cluster can run: sizes of at least zero, finite positive map rates,
// and progress thresholds strictly between 0 and 1.
func FuzzParse(f *testing.F) {
	f.Add(sampleConfig)
	f.Add("input /x 2.5G\njob a /x rate=1e7 mem=1M reduces=2 pool=p\nsubmit a\non complete a restore a")
	f.Add("input /x NaN\njob a /x rate=Inf mem=1e30G\nsubmit a\non progress a 0.999 preempt a")
	f.Fuzz(func(t *testing.T, text string) {
		exp, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, in := range exp.Inputs {
			if in.Size < 0 {
				t.Fatalf("input %s accepted with size %d", in.Path, in.Size)
			}
		}
		for name, conf := range exp.Jobs {
			if conf.ExtraMemoryBytes < 0 {
				t.Fatalf("job %s accepted with memory %d", name, conf.ExtraMemoryBytes)
			}
			if !(conf.MapParseRate > 0) || math.IsInf(conf.MapParseRate, 0) {
				t.Fatalf("job %s accepted with rate %v", name, conf.MapParseRate)
			}
		}
		for _, r := range exp.Rules {
			if r.Event == "progress" && !(r.Threshold > 0 && r.Threshold < 1) {
				t.Fatalf("rule on %s accepted with threshold %v", r.EventJob, r.Threshold)
			}
		}
	})
}
