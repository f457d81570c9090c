package mapreduce

import (
	"fmt"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/hdfs"
	"hadooppreempt/internal/memory"
	"hadooppreempt/internal/ossim"
	"hadooppreempt/internal/sim"
)

// NodeConfig describes one worker node.
type NodeConfig struct {
	// Cores is the CPU count.
	Cores int
	// MapSlots is the number of concurrent task slots.
	MapSlots int
	// Memory configures the node's memory manager.
	Memory memory.Config
	// Disk configures the node's (single) disk.
	Disk disk.Config
}

// DefaultNodeConfig mirrors the paper's testbed: a 4-core node with 4 GB
// of RAM and one map slot, so the two experiment tasks contend for it.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		Cores:    4,
		MapSlots: 1,
		Memory:   memory.DefaultConfig(),
		Disk:     disk.DefaultConfig(),
	}
}

// ClusterConfig describes a whole simulated cluster.
type ClusterConfig struct {
	// Nodes is the worker count.
	Nodes int
	// NodesPerRack controls rack topology (0 = single rack).
	NodesPerRack int
	// Node is the per-node hardware configuration.
	Node NodeConfig
	// Engine is the MapReduce engine configuration.
	Engine EngineConfig
	// HDFS is the filesystem configuration.
	HDFS hdfs.Config
	// Seed drives all randomized choices (replica placement, heartbeat
	// phases); runs with equal seeds are identical.
	Seed uint64
}

// DefaultClusterConfig returns the paper's single-node evaluation setup.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Nodes:        1,
		NodesPerRack: 0,
		Node:         DefaultNodeConfig(),
		Engine:       DefaultEngineConfig(),
		HDFS:         hdfs.DefaultConfig(),
		Seed:         1,
	}
}

// Node bundles the per-node substrates.
type Node struct {
	Name    string
	Kernel  *ossim.Kernel
	Device  *disk.Device
	Memory  *memory.Manager
	Tracker *TaskTracker
}

// Cluster is a fully assembled simulated Hadoop cluster.
type Cluster struct {
	eng   *sim.Engine
	rng   *sim.RNG
	fs    *hdfs.FileSystem
	jt    *JobTracker
	nodes []*Node
}

// NewCluster builds engine, filesystem, nodes (disk + memory + kernel +
// datanode + tasktracker) and the JobTracker. Trackers are started with
// staggered heartbeat phases. The caller must install a Scheduler before
// running.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("mapreduce: cluster needs at least one node")
	}
	eng := sim.New()
	rng := sim.NewRNG(cfg.Seed)
	fs, err := hdfs.New(eng, rng.Fork(), cfg.HDFS)
	if err != nil {
		return nil, err
	}
	jt, err := NewJobTracker(eng, cfg.Engine, fs)
	if err != nil {
		return nil, err
	}
	c := &Cluster{eng: eng, rng: rng, fs: fs, jt: jt}
	hbJitter := rng.Fork()
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node%02d", i+1)
		rack := "rack1"
		if cfg.NodesPerRack > 0 {
			rack = fmt.Sprintf("rack%d", i/cfg.NodesPerRack+1)
		}
		dev := disk.New(eng, name+"/sda", cfg.Node.Disk)
		mem, err := memory.New(eng, dev, cfg.Node.Memory)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: node %s: %w", name, err)
		}
		kernel := ossim.NewKernel(eng, name, cfg.Node.Cores, mem)
		if _, err := fs.AddDataNode(hdfs.NodeID(name), rack, dev, mem); err != nil {
			return nil, err
		}
		tt, err := NewTaskTracker(jt, "tracker_"+name, hdfs.NodeID(name), kernel, dev, fs, cfg.Node.MapSlots)
		if err != nil {
			return nil, err
		}
		// Stagger heartbeats uniformly over the interval.
		phase := time.Duration(hbJitter.Int63n(int64(cfg.Engine.HeartbeatInterval)))
		tt.Start(phase)
		c.nodes = append(c.nodes, &Node{
			Name: name, Kernel: kernel, Device: dev, Memory: mem, Tracker: tt,
		})
	}
	return c, nil
}

// Engine returns the simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// FileSystem returns the HDFS substrate.
func (c *Cluster) FileSystem() *hdfs.FileSystem { return c.fs }

// JobTracker returns the JobTracker.
func (c *Cluster) JobTracker() *JobTracker { return c.jt }

// Nodes returns a copy of the worker node list. Hot-path callers should
// use NumNodes and Node instead, which do not allocate.
func (c *Cluster) Nodes() []*Node { return append([]*Node(nil), c.nodes...) }

// NumNodes returns the worker count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns a worker by index.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// MapSlots returns the cluster-wide map slot count.
func (c *Cluster) MapSlots() int {
	n := 0
	for _, node := range c.nodes {
		n += node.Tracker.mapSlots
	}
	return n
}

// CreateInput stores a synthetic input file.
func (c *Cluster) CreateInput(path string, size int64) error {
	_, err := c.fs.Create(path, size, "")
	return err
}

// RunUntil advances virtual time to the deadline.
func (c *Cluster) RunUntil(deadline time.Duration) { c.eng.RunUntil(deadline) }

// RunUntilJobsDone advances virtual time until every submitted job is in a
// terminal state or the deadline passes. It reports whether all jobs
// finished. The termination check runs between every pair of events, so it
// must not allocate (see JobTracker.allJobsTerminal).
func (c *Cluster) RunUntilJobsDone(deadline time.Duration) bool {
	return c.RunUntilPlannedJobsDone(1, deadline)
}

// RunUntilPlannedJobsDone is RunUntilJobsDone for workloads whose
// submissions are deferred (Engine().At): it does not stop before at
// least planned jobs have actually been submitted, so an early quiet
// period — every submitted job terminal while later submissions are
// still scheduled — is not mistaken for completion.
func (c *Cluster) RunUntilPlannedJobsDone(planned int, deadline time.Duration) bool {
	if planned < 1 {
		planned = 1
	}
	done := func() bool {
		return len(c.jt.jobOrder) >= planned && c.jt.allJobsTerminal()
	}
	for c.eng.Now() < deadline {
		if done() {
			return true
		}
		if !c.eng.StepUntil(deadline) {
			break
		}
	}
	return done()
}

// Close releases the cluster's resources back to their arenas: the memory
// managers' extent tables and stacks, the trackers' and kernels' tables,
// the filesystem's block maps and the engine's event storage. Call it once
// a run's results have been extracted; the cluster and everything reached
// through it must not be used afterwards. Sweep cells call it between
// repetitions so a worker reuses one set of buffers instead of
// reallocating per cell.
func (c *Cluster) Close() {
	if c.eng == nil {
		return // already closed
	}
	for _, n := range c.nodes {
		n.Tracker.release()
		n.Kernel.Release()
		n.Memory.Release()
	}
	c.jt.release()
	c.fs.Release()
	c.eng.Release()
	c.nodes = nil
	c.jt, c.fs, c.eng, c.rng = nil, nil, nil, nil
}
