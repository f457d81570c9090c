package config

import (
	"fmt"
	"time"

	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/trace"
)

// Runner executes a parsed experiment on a cluster.
type Runner struct {
	exp     *Experiment
	cluster *mapreduce.Cluster
	sched   *scheduler.Installation
	jobs    map[string]*mapreduce.Job
	rec     *trace.Recorder
}

// NewRunner wires the experiment onto the cluster: the dummy scheduler
// and the primitive are installed, the schedule recorder subscribed,
// inputs created, and rules translated into triggers.
func NewRunner(exp *Experiment, cluster *mapreduce.Cluster) (*Runner, error) {
	sched, err := scheduler.Install(cluster, "priority", exp.Primitive, "", 0)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		exp:     exp,
		cluster: cluster,
		sched:   sched,
		jobs:    make(map[string]*mapreduce.Job),
		rec:     trace.Listen(cluster.JobTracker()),
	}
	for _, in := range exp.Inputs {
		if err := cluster.CreateInput(in.Path, in.Size); err != nil {
			return nil, err
		}
	}
	for _, rule := range exp.Rules {
		rule := rule
		trig := scheduler.Trigger{
			Job: rule.EventJob,
			Do:  func() { r.applyAction(rule) },
		}
		switch rule.Event {
		case "progress":
			trig.Event = scheduler.OnProgress
			trig.Threshold = rule.Threshold
		case "complete":
			trig.Event = scheduler.OnComplete
		case "submit":
			trig.Event = scheduler.OnSubmit
		default:
			return nil, fmt.Errorf("config: unknown event %q", rule.Event)
		}
		r.sched.Dummy.AddTrigger(trig)
	}
	return r, nil
}

// Run submits the initial jobs and drives the cluster until all submitted
// jobs finish or the deadline passes.
func (r *Runner) Run(deadline time.Duration) error {
	for _, name := range r.exp.Submits {
		if err := r.submit(name); err != nil {
			return err
		}
	}
	if !r.cluster.RunUntilJobsDone(deadline) {
		return fmt.Errorf("config: experiment did not finish before %v", deadline)
	}
	r.rec.CloseAll(r.cluster.Engine().Now())
	return nil
}

// Jobs returns the submitted jobs by configured name.
func (r *Runner) Jobs() map[string]*mapreduce.Job { return r.jobs }

// Trace returns the recorded schedule.
func (r *Runner) Trace() *trace.Recorder { return r.rec }

func (r *Runner) submit(name string) error {
	conf, ok := r.exp.Jobs[name]
	if !ok {
		return fmt.Errorf("config: submit of undefined job %q", name)
	}
	job, err := r.cluster.JobTracker().Submit(conf)
	if err != nil {
		return err
	}
	r.jobs[name] = job
	return nil
}

// applyAction executes a rule body.
func (r *Runner) applyAction(rule Rule) {
	switch rule.Action {
	case ActionSubmit:
		if err := r.submit(rule.ActionJob); err != nil {
			panic(fmt.Sprintf("config: %v", err))
		}
	case ActionPreempt:
		task, ok := r.firstMapTask(rule.ActionJob)
		if !ok {
			return
		}
		if _, err := r.sched.Preemptor.Preempt(task); err != nil {
			panic(fmt.Sprintf("config: preempt %s: %v", rule.ActionJob, err))
		}
	case ActionRestore:
		task, ok := r.firstMapTask(rule.ActionJob)
		if !ok {
			return
		}
		if err := r.sched.Preemptor.Restore(task); err != nil {
			panic(fmt.Sprintf("config: restore %s: %v", rule.ActionJob, err))
		}
	}
}

func (r *Runner) firstMapTask(job string) (mapreduce.TaskID, bool) {
	j, ok := r.jobs[job]
	if !ok {
		return mapreduce.TaskID{}, false
	}
	maps := j.MapTasks()
	if len(maps) == 0 {
		return mapreduce.TaskID{}, false
	}
	return maps[0].ID(), true
}
