package control_test

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"infopipes/internal/control"
	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

func init() {
	netpipe.RegisterPayload(int64(0))
}

// sinkStore captures collect sinks built on (in-process) nodes.
type sinkStore struct {
	mu    sync.Mutex
	sinks map[string]*pipes.CollectSink
}

func (ss *sinkStore) catalog() graph.Catalog {
	return graph.Catalog{
		"counter": func(name string, args []string, _ map[string]string) (core.Stage, error) {
			limit, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil {
				return core.Stage{}, err
			}
			return core.Comp(pipes.NewCounterSource(name, limit)), nil
		},
		"cpump": func(name string, args []string, _ map[string]string) (core.Stage, error) {
			rate, err := strconv.ParseFloat(args[0], 64)
			if err != nil {
				return core.Stage{}, err
			}
			return core.Pmp(pipes.NewClockedPump(name, rate)), nil
		},
		"fpump": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Pmp(pipes.NewFreePump(name)), nil
		},
		"probe": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Comp(pipes.NewCountingProbe(name)), nil
		},
		"collect": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			s := pipes.NewCollectSink(name)
			ss.mu.Lock()
			ss.sinks[name] = s
			ss.mu.Unlock()
			return core.Comp(s), nil
		},
	}
}

type testNode struct {
	node  *remote.Node
	sched *uthread.Scheduler
	addr  string
}

func startNode(t *testing.T, name string, cat graph.Catalog) *testNode {
	t.Helper()
	sched := uthread.New(uthread.WithClock(vclock.Real{}))
	node := remote.NewNode(name, sched, &events.Bus{})
	graph.EnableNode(node, cat)
	addr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("node %s: %v", name, err)
	}
	sched.RunBackground()
	tn := &testNode{node: node, sched: sched, addr: addr}
	t.Cleanup(func() { tn.close() })
	return tn
}

func (tn *testNode) close() {
	tn.node.Close()
	tn.sched.Stop()
}

// TestDirectoryHeartbeatAndDeadNode: the directory tracks node health over
// the health op, counts misses, and surfaces a dead node once as OnDown
// with the wrapped unreachability error.
func TestDirectoryHeartbeatAndDeadNode(t *testing.T) {
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)

	dir := control.NewDirectory()
	dir.MaxMisses = 2
	var downMu sync.Mutex
	downs := make(map[string]error)
	dir.OnDown = func(name string, err error) {
		downMu.Lock()
		downs[name] = err
		downMu.Unlock()
	}
	defer dir.Close()
	for _, n := range []*testNode{a, b} {
		if _, err := dir.Register(n.addr); err != nil {
			t.Fatalf("register %s: %v", n.addr, err)
		}
	}
	if got := dir.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("names = %v", got)
	}
	if healthy := dir.Heartbeat(); healthy != 2 {
		t.Fatalf("healthy = %d, want 2", healthy)
	}
	for _, h := range dir.Snapshot() {
		if !h.Healthy || h.Err != nil {
			t.Fatalf("node %s unhealthy after a good heartbeat: %+v", h.Name, h)
		}
	}

	b.close()
	if healthy := dir.Heartbeat(); healthy != 1 {
		t.Fatalf("healthy = %d after first miss, want 1", healthy)
	}
	if !dir.Healthy("beta") {
		t.Fatal("beta marked down before MaxMisses")
	}
	dir.Heartbeat() // second miss: transition to down
	if dir.Healthy("beta") {
		t.Fatal("beta still healthy after MaxMisses misses")
	}
	downMu.Lock()
	err, fired := downs["beta"]
	downMu.Unlock()
	if !fired {
		t.Fatal("OnDown never fired for beta")
	}
	if !errors.Is(err, remote.ErrNodeUnreachable) {
		t.Fatalf("OnDown err = %v, want wrapped ErrNodeUnreachable", err)
	}
	if !dir.Healthy("alpha") {
		t.Fatal("alpha went down with beta")
	}
	// Repeated misses do not re-fire OnDown.
	downMu.Lock()
	downs["beta"] = nil
	downMu.Unlock()
	dir.Heartbeat()
	downMu.Lock()
	refired := downs["beta"] != nil
	downMu.Unlock()
	if refired {
		t.Fatal("OnDown fired again for an already-down node")
	}
}

// TestBalanceMovesHotSegmentAcrossNodes: a 2-node cluster with three chain
// segments piled onto beta; one Deployment.Balance epoch detects the
// per-node item skew over the stats op and re-places the movable segment
// onto alpha (Rebalance on an OnNodes deployment is Replace, and the
// balancer only proposes Replaceable segments), with every item still
// delivered in order.
func TestBalanceMovesHotSegmentAcrossNodes(t *testing.T) {
	const items = 200
	ss := &sinkStore{sinks: make(map[string]*pipes.CollectSink)}
	cat := ss.catalog()
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)

	dir := control.NewDirectory()
	defer dir.Close()
	if _, err := dir.Register(a.addr); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Register(b.addr); err != nil {
		t.Fatal(err)
	}

	// src on alpha; f1, f2 and the sink chain all on beta — beta carries
	// three of the four segments, so its epoch item delta is ~3x alpha's.
	g := graph.New("hot")
	g.AddSpec("src", "counter", graph.WithArgs(strconv.Itoa(items)), graph.Place(0))
	g.AddSpec("pump", "cpump", graph.WithArgs("400"), graph.Place(0))
	g.AddSpec("f1", "probe", graph.Place(1))
	g.AddSpec("p1", "fpump", graph.Place(1))
	g.AddSpec("f2", "probe", graph.Place(1))
	g.AddSpec("p2", "fpump", graph.Place(1))
	g.AddSpec("out", "fpump", graph.Place(1))
	g.AddSpec("sink", "collect", graph.Place(1))
	g.Pipe("src", "pump")
	g.Cut("pump", "f1")
	g.Pipe("f1", "p1")
	g.Cut("p1", "f2")
	g.Pipe("f2", "p2")
	g.Cut("p2", "out")
	g.Pipe("out", "sink")

	d, err := g.Deploy(graph.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()

	// Let enough of the stream flow to carry a signal, then tick once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := d.Stats()
		var f1 int64
		for _, seg := range st.Segments {
			if seg.Name == "f1>>p1" {
				f1 = seg.Items
			}
		}
		if f1 >= 64 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never reached 64 items")
		}
		time.Sleep(5 * time.Millisecond)
	}
	moved, err := d.Balance(graph.NewBalancer(graph.BalancePolicy{SkewThreshold: 1.5, MinItems: 32}))
	if err != nil {
		t.Fatalf("balance: %v", err)
	}
	if !moved {
		t.Fatalf("balancer made no move; stats:\n%v", d.Stats())
	}
	if got := d.SegmentPlacements()["f1>>p1"]; got != 0 {
		t.Fatalf("f1>>p1 on node %d after balancing, want 0 (alpha)", got)
	}

	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	sink := ss.sinks["sink"]
	if sink.Count() != items {
		t.Fatalf("sink received %d items, want %d", sink.Count(), items)
	}
	for i, it := range sink.Items() {
		if it.Seq != int64(i+1) {
			t.Fatalf("order broken at %d: seq %d", i, it.Seq)
		}
	}
}
