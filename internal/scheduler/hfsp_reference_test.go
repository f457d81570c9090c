package scheduler

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sim"
)

// hfspJobs returns the jobs HFSP holds, started and fresh, in
// submission order.
func hfspJobs(h *HFSP) []hfspJob {
	jobs := slices.Concat(h.started, h.fresh)
	slices.SortFunc(jobs, func(a, b hfspJob) int { return cmp.Compare(a.seq, b.seq) })
	return jobs
}

// refOrdered is HFSP's job order as it was computed before jobs kept
// per-state task counts: every live job, sorted by remaining size, ties
// by submission.
func refOrdered(h *HFSP) []*mapreduce.Job {
	var keys []sizeKey
	for i, j := range hfspJobs(h) {
		if s := j.job.State(); s == mapreduce.JobPending || s == mapreduce.JobRunning {
			keys = append(keys, sizeKey{rem: remainingSize(j), seq: i, job: j.job})
		}
	}
	slices.SortFunc(keys, func(a, b sizeKey) int {
		if c := cmp.Compare(a.rem, b.rem); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	out := make([]*mapreduce.Job, len(keys))
	for i, k := range keys {
		out[i] = k.job
	}
	return out
}

// hasPending reports whether any task of j is pending, by walking them.
func hasPending(j *mapreduce.Job) bool {
	for _, t := range j.Tasks() {
		if t.State() == mapreduce.TaskPending {
			return true
		}
	}
	return false
}

// refCheckPick is the sort-then-walk victim search of HFSP.check before
// the single-pass scan: the starved job is the first job in size order
// with a pending task, and the candidates are the running tasks of every
// job after it, offered in size order. It returns nil for what check
// would not find.
func refCheckPick(h *HFSP) (starved *mapreduce.Job, victim *mapreduce.Task) {
	ordered := refOrdered(h)
	if len(ordered) < 2 {
		return nil, nil
	}
	rank := -1
	for i, j := range ordered {
		if hasPending(j) {
			starved, rank = j, i
			break
		}
	}
	if starved == nil {
		return nil, nil
	}
	var cands []advisor.Candidate
	var tasks []*mapreduce.Task
	for _, j := range ordered[rank+1:] {
		for _, t := range j.Tasks() {
			if t.State() != mapreduce.TaskRunning {
				continue
			}
			cands = append(cands, advisor.Candidate{
				ID:            t.IDString(),
				Progress:      t.Progress(),
				ResidentBytes: t.ResidentBytes(),
				StartedAt:     t.FirstLaunchAt(),
			})
			tasks = append(tasks, t)
		}
	}
	d := h.adv.Decide(advisor.Request{Candidates: cands})
	if d.Victim == advisor.NoVictim {
		return starved, nil
	}
	return starved, tasks[d.Victim]
}

// refAssign is HFSP.Assign before per-state task counts, over every live
// job in size order, with the resume it would issue reported instead of
// issued: ResumeTask succeeds exactly on a SUSPENDED task.
func refAssign(h *HFSP, tt mapreduce.TaskTrackerInfo) (resumed mapreduce.TaskID, out []mapreduce.Assignment) {
	free := tt.FreeMapSlots
	ordered := refOrdered(h)
	rank := make(map[mapreduce.JobID]int)
	for i, j := range ordered {
		rank[j.ID()] = i
	}
	bestRank := len(ordered)
	var bestResume mapreduce.TaskID
	for _, tid := range tt.SuspendedTasks {
		if jid, ok := h.suspended[tid]; ok {
			if r, live := rank[jid]; live && r < bestRank {
				bestRank = r
				bestResume = tid
			}
		}
	}
	if bestResume != (mapreduce.TaskID{}) && free > 0 {
		smallerWaiting := false
		for _, j := range ordered[:bestRank] {
			smallerWaiting = smallerWaiting || hasPending(j)
		}
		if t, ok := h.jt.Task(bestResume); ok && !smallerWaiting && t.State() == mapreduce.TaskSuspended {
			resumed = bestResume
			free--
		}
	}
	for _, job := range ordered {
		if free <= 0 {
			break
		}
		for _, t := range job.Tasks() {
			if free <= 0 {
				break
			}
			if t.State() != mapreduce.TaskPending {
				continue
			}
			if t.ID().Type == mapreduce.ReduceTask && !mapsDone(job) {
				continue
			}
			out = append(out, mapreduce.Assignment{Task: t.ID()})
			free--
		}
	}
	return resumed, out
}

// suspendedOn lists the tasks whose process is stopped, or about to
// resume, on the tracker: the SuspendedTasks a heartbeat reports.
func suspendedOn(jt *mapreduce.JobTracker, tracker string) []mapreduce.TaskID {
	var out []mapreduce.TaskID
	for _, j := range jt.Jobs() {
		for _, t := range j.Tasks() {
			if s := t.State(); t.Tracker() == tracker && (s == mapreduce.TaskSuspended || s == mapreduce.TaskMustResume) {
				out = append(out, t.ID())
			}
		}
	}
	return out
}

// runningTasks lists every RUNNING task.
func runningTasks(jt *mapreduce.JobTracker) []*mapreduce.Task {
	var out []*mapreduce.Task
	for _, j := range jt.Jobs() {
		for _, t := range j.Tasks() {
			if t.State() == mapreduce.TaskRunning {
				out = append(out, t)
			}
		}
	}
	return out
}

// taskName renders a task's ID, or "none".
func taskName(t *mapreduce.Task) string {
	if t == nil {
		return "none"
	}
	return t.IDString()
}

// TestHFSPScanMatchesSortReference drives HFSP and the sort-based
// reference above over randomized clusters: jobs of random size, memory
// and speed, some with a reduce, arrive at random times; random running
// tasks are suspended as HFSP would suspend them; the run stops at a
// random instant, with some jobs finished, some never started and tasks
// in every live state. At that instant Assign must return what the
// reference returns and issue the same resume on every tracker, and the
// check loop must pick the same starved job and the same victim under a
// random advisor policy. The crowded shape submits many more jobs early,
// with inputs of one to three blocks, so most jobs have never launched
// when the run stops and many have equal sizes: it exercises the fresh
// list's order and the hand-over from fresh to started.
func TestHFSPScanMatchesSortReference(t *testing.T) {
	shapes := []struct {
		name    string
		seed    uint64
		jobs    func(*sim.RNG) int
		input   func(*sim.RNG) int64
		arrival func(*sim.RNG) time.Duration
		// minimum decisions to exercise over the shape's trials
		victims, resumes, assigned, fresh int
	}{
		{
			name:    "mixed",
			seed:    5,
			jobs:    func(rng *sim.RNG) int { return 4 + rng.Intn(16) },
			input:   func(rng *sim.RNG) int64 { return int64(1+rng.Intn(16)) << 25 },
			arrival: func(rng *sim.RNG) time.Duration { return time.Duration(rng.Intn(40_000)) * time.Millisecond },
			victims: 20, resumes: 3, assigned: 200,
		},
		{
			name:    "crowded",
			seed:    6,
			jobs:    func(rng *sim.RNG) int { return 20 + rng.Intn(40) },
			input:   func(rng *sim.RNG) int64 { return int64(1+rng.Intn(3)) << 26 },
			arrival: func(rng *sim.RNG) time.Duration { return time.Duration(rng.Intn(10_000)) * time.Millisecond },
			victims: 20, resumes: 3, assigned: 200, fresh: 2000,
		},
	}
	policies := []advisor.Policy{
		advisor.MostProgress, advisor.LeastProgress, advisor.SmallestMemory,
		advisor.LargestMemory, advisor.Oldest, advisor.Youngest,
	}
	const trials = 200
	for _, shape := range shapes {
		rng := sim.NewRNG(shape.seed)
		var victims, resumes, assigned, fresh int
		for trial := 0; trial < trials; trial++ {
			cfg := mapreduce.DefaultClusterConfig()
			cfg.Nodes = 1 + rng.Intn(3)
			cfg.Node.MapSlots = 1 + rng.Intn(3)
			cfg.Node.Memory.PageSize = 1 << 20
			cfg.HDFS.BlockSize = 64 << 20
			cfg.Engine.HeartbeatInterval = time.Second
			c, err := mapreduce.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			jt := c.JobTracker()
			pre, err := core.NewPreemptor(c, core.Suspend)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := advisor.New(advisor.Config{Policy: policies[rng.Intn(len(policies))], Primitive: core.Suspend})
			if err != nil {
				t.Fatal(err)
			}
			// The check loop runs on its own engine, which only this test
			// drives; the cluster runs under HFSP's Assign alone.
			h, err := NewHFSP(sim.New(), jt, pre, adv, HFSPConfig{CheckInterval: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			jt.SetScheduler(h)

			for i, n := 0, shape.jobs(rng); i < n; i++ {
				conf := mapreduce.JobConf{
					Name:             fmt.Sprintf("j%d", i),
					InputPath:        fmt.Sprintf("/in%d", i),
					MapParseRate:     float64(8+rng.Intn(32)) * 1e6,
					JVMBaseBytes:     64 << 20,
					ExtraMemoryBytes: int64(rng.Intn(5)) << 25,
				}
				if rng.Intn(3) == 0 {
					conf.NumReduces, conf.ReduceRate, conf.ShuffleSortRate = 1, 64e6, 128e6
				}
				if err := c.CreateInput(conf.InputPath, shape.input(rng)); err != nil {
					t.Fatal(err)
				}
				c.Engine().At(shape.arrival(rng), func() {
					if _, err := jt.Submit(conf); err != nil {
						t.Error(err)
					}
				})
			}
			stop := time.Duration(5_000+rng.Intn(75_000)) * time.Millisecond
			for i, n := 0, rng.Intn(12); i < n; i++ {
				pick := rng.Intn(1 << 20)
				c.Engine().At(time.Duration(rng.Int63n(int64(stop))), func() {
					running := runningTasks(jt)
					if len(running) == 0 {
						return
					}
					v := running[pick%len(running)]
					if jt.SuspendTask(v.ID()) == nil {
						h.suspended[v.ID()] = v.Job().ID()
					}
				})
			}
			c.RunUntil(stop)
			if err := checkFreshJobs(h); err != nil {
				t.Fatalf("%s trial %d: %v", shape.name, trial, err)
			}
			fresh += len(h.fresh)

			for _, n := range c.Nodes() {
				info := mapreduce.TaskTrackerInfo{
					Name:           n.Tracker.Name(),
					Node:           string(n.Tracker.Node()),
					FreeMapSlots:   rng.Intn(4),
					SuspendedTasks: suspendedOn(jt, n.Tracker.Name()),
				}
				wantResume, want := refAssign(h, info)
				before := h.resumes
				got := h.Assign(info)
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d, %s: Assign = %v, reference %v", shape.name, trial, info.Name, got, want)
				}
				switch {
				case wantResume == (mapreduce.TaskID{}) && h.resumes != before:
					t.Fatalf("%s trial %d, %s: Assign resumed a task, the reference none", shape.name, trial, info.Name)
				case wantResume != (mapreduce.TaskID{}):
					if rt, _ := jt.Task(wantResume); h.resumes != before+1 || rt.State() != mapreduce.TaskMustResume {
						t.Fatalf("%s trial %d, %s: the reference resumes %s, Assign did not", shape.name, trial, info.Name, wantResume)
					}
					resumes++
				}
				assigned += len(got)
				if err := checkFreshJobs(h); err != nil {
					t.Fatalf("%s trial %d, after Assign on %s: %v", shape.name, trial, info.Name, err)
				}
			}

			// PreemptionDelay is zero: the first check marks the starved job
			// and the second preempts its victim.
			wantStarved, wantVictim := refCheckPick(h)
			h.check()
			var gotStarved mapreduce.JobID
			for id := range h.starvedSince {
				gotStarved = id
			}
			switch {
			case len(h.starvedSince) > 1:
				t.Fatalf("%s trial %d: %d jobs marked starved", shape.name, trial, len(h.starvedSince))
			case wantStarved == nil && gotStarved != "":
				t.Fatalf("%s trial %d: check marked %s starved, the reference none", shape.name, trial, gotStarved)
			case wantStarved != nil && gotStarved != wantStarved.ID():
				t.Fatalf("%s trial %d: check marked %q starved, the reference %s", shape.name, trial, gotStarved, wantStarved.ID())
			}
			running := runningTasks(jt)
			h.check()
			var gotVictim *mapreduce.Task
			for _, rt := range running {
				if rt.State() == mapreduce.TaskMustSuspend {
					gotVictim = rt
				}
			}
			if gotVictim != wantVictim {
				t.Fatalf("%s trial %d: check preempted %s, the reference %s", shape.name, trial, taskName(gotVictim), taskName(wantVictim))
			}
			if wantVictim != nil {
				victims++
			}
			c.Close()
		}
		t.Logf("%s: %d trials: %d victims, %d resumes, %d assignments, %d fresh jobs at the stop instants",
			shape.name, trials, victims, resumes, assigned, fresh)
		if victims < shape.victims || resumes < shape.resumes || assigned < shape.assigned || fresh < shape.fresh {
			t.Fatalf("%s: too few decisions exercised: %d victims, %d resumes, %d assignments, %d fresh jobs",
				shape.name, victims, resumes, assigned, fresh)
		}
	}
}

// checkFreshJobs checks what HFSP relies on for its fresh list: every
// job in it is live with every task pending, the list is sorted by
// (input, submission), and no job is in both lists.
func checkFreshJobs(h *HFSP) error {
	for i, j := range h.fresh {
		if !isLive(j.job) || j.job.TasksIn(mapreduce.TaskPending) == 0 || j.job.TasksIn(mapreduce.TaskPending) != len(j.job.Tasks()) {
			return fmt.Errorf("fresh job %s is %v with %d of %d tasks pending", j.job.ID(), j.job.State(),
				j.job.TasksIn(mapreduce.TaskPending), len(j.job.Tasks()))
		}
		if i > 0 && compareSizeKeys(h.fresh[i-1].freshKey(), j.freshKey()) >= 0 {
			return fmt.Errorf("fresh jobs %s and %s out of order", h.fresh[i-1].job.ID(), j.job.ID())
		}
		if slices.ContainsFunc(h.started, func(s hfspJob) bool { return s.job == j.job }) {
			return fmt.Errorf("job %s is both fresh and started", j.job.ID())
		}
	}
	return nil
}
