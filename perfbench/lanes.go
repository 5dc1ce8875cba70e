package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/netpipe"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// node-lanes: the wire path.  Two in-process §2.4 nodes on loopback,
// deployed with OnNodes(...).WithClusterLanes():
//
//	node 0: source → pump ──durable lane──▶ node 1: pump → checksum → sink
//
// Payloads are seeded []byte values, log-uniform from 64 B to 8 KiB, each
// item with one attribute.  The codec, the TCP lane, the durable journal
// and its acks, and the remote protocol do most of the work; shard links,
// tees and QoS do none.  A journal or codec optimisation claims its gain
// here.
const (
	laneRate  = 10000 // paced items/s, well below saturated capacity
	laneTable = 4096  // distinct payloads (about 7 MB)
	laneMin   = 64
	laneMax   = 8192
)

// node-lanes probe ids along the item path.
const (
	lpDue = iota
	lpPumped
	lpSend
	lpRecv
	lpPreSink
	lpArrival
)

var laneProbes = []string{"due", "pumped", "send", "recv", "presink", "arrival"}

var laneSteps = map[[2]int]string{
	{lpDue, lpPumped}:      "core.pump_lag",
	{lpPumped, lpSend}:     "core.trunk",
	{lpSend, lpRecv}:       "netpipe.lane",
	{lpRecv, lpPreSink}:    "work.checksum",
	{lpPreSink, lpArrival}: "core.sink",
}

type laneInputs struct {
	payloads [][]byte
	crc      []uint32 // reference checksum per payload
}

func genLanes(seed int64) (*laneInputs, string) {
	rng := rand.New(rand.NewSource(seed))
	in := &laneInputs{payloads: make([][]byte, laneTable), crc: make([]uint32, laneTable)}
	var raw []byte
	span := math.Log2(laneMax / laneMin)
	for i := range in.payloads {
		n := int(laneMin * math.Exp2(rng.Float64()*span))
		p := make([]byte, n)
		rng.Read(p)
		in.payloads[i] = p
		in.crc[i] = crc32.ChecksumIEEE(p)
		raw = fmt.Appendf(raw, "%d,%d;", n, in.crc[i])
	}
	return in, digest(raw)
}

// item builds item seq: its payload and its one attribute, the length.
func (in *laneInputs) item(seq int64, now time.Time) *item.Item {
	p := in.payloads[(seq-1)%laneTable]
	return item.New(p, seq, now).WithSize(len(p)).WithAttr("len", len(p))
}

// laneNode is one in-process cluster node.
type laneNode struct {
	node  *remote.Node
	sched *uthread.Scheduler
}

// laneRun is one deployment of the node-lanes flow, nodes included.
type laneRun struct {
	in      *laneInputs
	nodes   []laneNode
	clients []*remote.Client
	d       *graph.Deployment
	src     *source
	pump    *anchoredPump
	snk     *sink
	bad     atomic.Int64 // checksum or attribute mismatches
	setup   time.Duration
}

type laneOpts struct {
	paced  bool
	items  int64
	dur    time.Duration
	plain  bool // plain one-shot lanes instead of durable cluster lanes
	tr     *tracer
	probes bool
	parent int
}

// catalog builds the node-side stage factories; they run inside this
// process, so they hand the built components back to the run.
func (r *laneRun) catalog(o laneOpts) graph.Catalog {
	var tr *tracer
	if o.probes {
		tr = o.tr
	}
	return graph.Catalog{
		"bsrc": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			r.src = newSource(name, o.items, r.in.item)
			return core.Comp(r.src), nil
		},
		"cpump": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			r.pump = newAnchoredPump(name, laneRate)
			return core.Pmp(r.pump), nil
		},
		"fpump": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Pmp(pipes.NewFreePump(name)), nil
		},
		"probe": func(name string, args []string, _ map[string]string) (core.Stage, error) {
			id, err := strconv.Atoi(args[0])
			if err != nil {
				return core.Stage{}, err
			}
			return core.Comp(newProbe(name, tr, 0, id)), nil
		},
		"check": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			return core.Comp(pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
				p, _ := it.Payload.([]byte)
				i := (it.Seq - 1) % laneTable
				if crc32.ChecksumIEEE(p) != r.in.crc[i] || it.AttrInt("len") != len(p) {
					r.bad.Add(1)
				}
				return it, nil
			})), nil
		},
		"sink": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
			var arrivals []int64
			if o.paced {
				arrivals = make([]int64, o.items)
			}
			r.snk = newSink(name, 0, tr, lpArrival, nil, arrivals)
			return core.Comp(r.snk), nil
		},
	}
}

// startNodes starts two nodes serving the control protocol on loopback and
// dials them.
func (r *laneRun) startNodes(cat graph.Catalog) error {
	for i := 0; i < 2; i++ {
		sched := uthread.New(uthread.WithClock(vclock.Real{}))
		node := remote.NewNode(fmt.Sprintf("lane%d", i), sched, &events.Bus{})
		graph.EnableNode(node, cat)
		addr, err := node.Serve("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		sched.RunBackground()
		r.nodes = append(r.nodes, laneNode{node: node, sched: sched})
		c, err := remote.Dial(addr)
		if err != nil {
			return fmt.Errorf("dial node %d: %w", i, err)
		}
		r.clients = append(r.clients, c)
	}
	return nil
}

// close tears the nodes down.
func (r *laneRun) close() {
	for _, c := range r.clients {
		c.Close()
	}
	for _, n := range r.nodes {
		n.node.Close()
		n.sched.Stop()
	}
}

func (in *laneInputs) deploy(o laneOpts) (*laneRun, error) {
	t0 := time.Now()
	r := &laneRun{in: in}
	if err := r.startNodes(r.catalog(o)); err != nil {
		r.close()
		return nil, err
	}
	g := graph.New("lanes")
	on := func(i int) graph.NodeOption { return graph.Place(i) }
	probeN := 0
	addProbe := func(id, node int) string {
		probeN++
		name := fmt.Sprintf("p%d", probeN)
		g.AddSpec(name, "probe", graph.WithArgs(strconv.Itoa(id)), on(node))
		return name
	}
	pumpKind := "fpump"
	if o.paced {
		pumpKind = "cpump"
	}
	g.AddSpec("src", "bsrc", on(0))
	g.AddSpec("pump", pumpKind, on(0))
	g.AddSpec("out", "fpump", on(1))
	g.AddSpec("check", "check", on(1))
	g.AddSpec("sink", "sink", on(1))
	if o.probes {
		last := addProbe(lpSend, 0)
		g.Pipe("src", "pump", addProbe(lpPumped, 0), last)
		g.Cut(last, "out")
		g.Pipe("out", addProbe(lpRecv, 1), "check", addProbe(lpPreSink, 1), "sink")
	} else {
		g.Pipe("src", "pump")
		g.Cut("pump", "out")
		g.Pipe("out", "check", "sink")
	}
	target := graph.OnNodes(r.clients...)
	if !o.plain {
		target = target.WithClusterLanes()
	}
	sp := o.tr.begin("graph.Deploy", o.parent)
	d, err := g.Deploy(target)
	o.tr.end(sp)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("lanes deploy: %w", err)
	}
	r.d = d
	r.setup = time.Since(t0)
	return r, nil
}

func (r *laneRun) run(limit time.Duration) error {
	r.d.Start()
	if err := watch("node-lanes run", r.snk.done, limit, r.diagnose); err != nil {
		r.d.Stop()
		return err
	}
	return r.d.Wait()
}

func (r *laneRun) diagnose() string {
	var b strings.Builder
	b.WriteString(r.d.Stats().String())
	for i, n := range r.nodes {
		st := n.sched.Stats()
		fmt.Fprintf(&b, "node %d switches=%d grants=%d timers=%d\n", i, st.Switches, st.Grants, st.Timers)
	}
	fmt.Fprintf(&b, "source offered=%d sink delivered=%d bad=%d checksum-bad=%d\n",
		r.src.produced(), r.snk.count.Load(), r.snk.bad.Load(), r.bad.Load())
	return b.String()
}

func (r *laneRun) schedStats() uthread.Stats {
	var agg uthread.Stats
	for _, n := range r.nodes {
		st := n.sched.Stats()
		agg.Switches += st.Switches
		agg.Grants += st.Grants
		agg.Timers += st.Timers
	}
	return agg
}

func (r *laneRun) check(rec *record, what string, runErr error) {
	offered, got := r.src.produced(), r.snk.count.Load()
	bad := r.snk.bad.Load() + r.bad.Load()
	rec.attempt(offered)
	if runErr != nil {
		rec.fail(fmt.Sprintf("%s: %v", what, runErr), offered-got+bad)
		return
	}
	if got != offered || bad != 0 {
		rec.fail(fmt.Sprintf("%s: offered %d, delivered %d, rejected %d (lost, duplicated, out of order or checksum mismatch)",
			what, offered, got, bad), max(offered-got, 0)+bad)
	}
}

// lanePhase deploys, runs, checks and tears down one phase; keep, when
// set, runs on the live deployment before the teardown.
func lanePhase(in *laneInputs, rec *record, what string, o laneOpts, planned time.Duration, keep func(*laneRun, satResult)) (*laneRun, satResult, error) {
	r, err := in.deploy(o)
	if err != nil {
		rec.attempt(1)
		rec.fail(fmt.Sprintf("%s: %v", what, err), 1)
		return nil, satResult{}, err
	}
	defer r.close()
	before := snapshot()
	if !o.paced {
		r.src.deadline = ns(before.wall.Add(o.dur))
	}
	err = r.run(planned + watchdogGrace)
	after := snapshot()
	r.check(rec, what, err)
	if err != nil {
		return nil, satResult{}, err
	}
	wall := time.Duration(r.snk.last.Load() - ns(before.wall))
	res := delta(before, after, r.snk.count.Load(), wall)
	if keep != nil {
		keep(r, res)
	}
	return r, res, nil
}

func runLanes(cfg config, rec *record) error {
	in, dig := genLanes(cfg.seed)
	fmt.Printf("inputs node-lanes digest=%s table=%d payload=%d..%d B paced_rate=%d/s\n", dig, laneTable, laneMin, laneMax, laneRate)
	if cfg.trace {
		return traceLanes(cfg, in, rec)
	}
	return rounds(cfg, rec, 0.4, 0.45, roundFuncs{
		warm: func() (time.Duration, error) {
			r, _, err := lanePhase(in, rec, "warm-up", laneOpts{dur: warmDur}, warmDur, nil)
			if err != nil {
				return 0, err
			}
			return r.setup, nil
		},
		paced: func(d time.Duration) ([]float64, time.Duration, error) {
			r, _, err := lanePhase(in, rec, "paced run", laneOpts{paced: true, items: int64(d.Seconds() * laneRate)}, d, nil)
			if err != nil {
				return nil, 0, err
			}
			return latencies(r.snk.arrivals, r.pump.due), r.setup, nil
		},
		saturated: func(d time.Duration) (satResult, time.Duration, error) {
			r, s, err := lanePhase(in, rec, "saturated run", laneOpts{dur: d}, d, nil)
			if err != nil {
				return s, 0, err
			}
			return s, r.setup, nil
		},
	})
}

// traceLanes is the traced run of node-lanes: untraced and traced
// saturated runs, untraced and traced paced runs, the same flow over plain
// lanes (netpipe.journal_overhead_pct), the codec on the workload's own
// items, the Health round trip and the clock's wait overshoot.
func traceLanes(cfg config, in *laneInputs, rec *record) error {
	paced := int64(cfg.budget(0.18).Seconds() * laneRate)
	tr := newTracer(laneProbes, laneSteps, 1, max(paced, traceCap))
	root := tr.begin("run", -1)
	satDur := cfg.budget(0.09)

	var health []float64
	ph := tr.begin("phase.saturated.untraced", root)
	_, su, err := lanePhase(in, rec, "untraced saturated", laneOpts{dur: satDur, tr: tr, parent: ph}, satDur, func(r *laneRun, s satResult) {
		sp := tr.begin("graph.Stats", ph)
		st := r.d.Stats()
		tr.end(sp)
		segmentMetrics(rec, st, s.wall)
		for i := 0; i < 100; i++ {
			sp := tr.begin("remote.Health", ph)
			t0 := nowNs()
			if _, err := r.clients[i%2].Health(); err != nil {
				rec.fail(fmt.Sprintf("Health: %v", err), 1)
			}
			health = append(health, float64(nowNs()-t0)/1e3)
			tr.end(sp)
		}
		sched := r.schedStats()
		items := float64(r.snk.count.Load())
		rec.set("uthread.switches_per_item", "ratio", ratio(float64(sched.Switches), items), nil, "both nodes, saturated")
		rec.set("uthread.grants_per_item", "ratio", ratio(float64(sched.Grants), items), nil, "both nodes, saturated")
	})
	tr.end(ph)
	if err != nil {
		return err
	}
	rec.attempt(int64(len(health)))
	rec.set("remote.health_rtt_us", "us", quantile(health, 0.5), nil, fmt.Sprintf("Client.Health round trip, n=%d", len(health)))
	rec.set("item.allocs_per_item", "ratio", su.mallocsPerItem(), nil, "MemStats.Mallocs delta per item, saturated")

	// Plain-lane runs come before and after the traced/untraced pairs, so
	// slow drift on the host touches plain and durable lanes alike.
	var plainIPS []float64
	plainRun := func() error {
		ph := tr.begin("phase.saturated.plain", root)
		defer tr.end(ph)
		_, sp, err := lanePhase(in, rec, "plain-lane saturated", laneOpts{dur: satDur, plain: true, tr: tr, parent: ph}, satDur, nil)
		plainIPS = append(plainIPS, sp.itemsPerSec())
		return err
	}
	if err := plainRun(); err != nil {
		return err
	}
	durIPS, err := overheadRuns(rec, tr, root, su, func(traced bool, ph int) (satResult, error) {
		_, s, err := lanePhase(in, rec, "saturated", laneOpts{dur: satDur, tr: tr, probes: traced, parent: ph}, satDur, nil)
		return s, err
	})
	if err != nil {
		return err
	}
	if err := plainRun(); err != nil {
		return err
	}
	plain, dur := median(plainIPS), median(durIPS)
	rec.set("netpipe.journal_overhead_pct", "%", ratio(plain-dur, plain)*100, append(plainIPS, durIPS...),
		"plain vs durable lane items/s (raw: plain runs, then durable runs)")

	ph = tr.begin("phase.paced.untraced", root)
	rp, _, err := lanePhase(in, rec, "untraced paced", laneOpts{paced: true, items: paced, tr: tr, parent: ph}, cfg.budget(0.18), func(r *laneRun, _ satResult) {
		rec.set("uthread.timers_per_item", "ratio", ratio(float64(r.schedStats().Timers), float64(paced)), nil, "both nodes, paced")
	})
	tr.end(ph)
	if err != nil {
		return err
	}
	untracedP50 := quantile(latencies(rp.snk.arrivals, rp.pump.due), 0.5)

	tr.reset()
	ph = tr.begin("phase.paced.traced", root)
	rt, _, err := lanePhase(in, rec, "traced paced", laneOpts{paced: true, items: paced, tr: tr, probes: true, parent: ph}, cfg.budget(0.18), nil)
	tr.end(ph)
	if err != nil {
		return err
	}
	for seq := int64(1); seq <= paced; seq++ {
		tr.set(0, seq, lpDue, rt.pump.due(seq))
	}
	pumpLagMetrics(rec, tr, lpPumped)
	selfTimeMetrics(rec, tr, untracedP50)
	var transit []float64
	for seq := int64(1); seq <= paced; seq++ {
		row := tr.ts[0][(seq-1)*int64(tr.k) : seq*int64(tr.k)]
		if row[lpSend] != 0 && row[lpRecv] != 0 {
			transit = append(transit, float64(row[lpRecv]-row[lpSend])/1e3)
		}
	}
	tail, label := tailQ(transit)
	rec.set("netpipe.lane_transit_us", "us", quantile(transit, 0.5), nil, fmt.Sprintf("probe before the cut to probe after it, paced, n=%d", len(transit)))
	rec.set("netpipe.lane_transit_tail_us", "us", tail, nil, fmt.Sprintf("%s of n=%d", label, len(transit)))

	ph = tr.begin("phase.codec", root)
	if err := codecMetrics(rec, tr, ph, in); err != nil {
		rec.fail(err.Error(), 1)
	}
	tr.end(ph)
	ph = tr.begin("phase.vclock", root)
	vclockMetrics(rec, tr, ph, 1000)
	tr.end(ph)
	rec.set("graph.deploy_ms", "ms", median(tr.callDurations("graph.Deploy")), tr.callDurations("graph.Deploy"), "Deploy call spans")
	absentLayers(rec, cfg.spec.PerLayer, "shard.", "pipes.", "graph.edit_", "graph.rebalance_ms", "graph.op_latency", "qos.")
	return writeSpans(cfg, tr, root)
}

// codecMetrics runs the binary codec over the workload's own items: one
// Marshal and one Unmarshal span per item, round trip checked.
func codecMetrics(rec *record, tr *tracer, parent int, in *laneInputs) error {
	m := netpipe.NewBinaryMarshaller()
	var enc, dec []float64
	wire := 0
	now := time.Now()
	for i := 0; i < laneTable; i++ {
		it := in.item(int64(i+1), now)
		t0 := nowNs()
		b, err := m.Marshal(it)
		t1 := nowNs()
		if err != nil {
			return fmt.Errorf("Marshal: %w", err)
		}
		back, err := m.Unmarshal(b)
		t2 := nowNs()
		if err != nil {
			return fmt.Errorf("Unmarshal: %w", err)
		}
		tr.record("netpipe.Marshal", t0, t1, parent)
		tr.record("netpipe.Unmarshal", t1, t2, parent)
		p, _ := back.Payload.([]byte)
		rec.attempt(1)
		if back.Seq != it.Seq || crc32.ChecksumIEEE(p) != in.crc[i] || back.AttrInt("len") != len(p) {
			rec.fail(fmt.Sprintf("codec round trip of item %d differs", i+1), 1)
		}
		enc = append(enc, float64(t1-t0))
		dec = append(dec, float64(t2-t1))
		wire += len(b)
		it.Recycle()
		back.Recycle()
	}
	rec.set("netpipe.encode_ns", "ns", quantile(enc, 0.5), nil, fmt.Sprintf("BinaryMarshaller.Marshal, median of %d items", laneTable))
	rec.set("netpipe.decode_ns", "ns", quantile(dec, 0.5), nil, fmt.Sprintf("BinaryMarshaller.Unmarshal, median of %d items", laneTable))
	rec.set("netpipe.wire_bytes_per_item", "B", float64(wire)/laneTable, nil, "mean encoded size")
	return nil
}
