package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// shard-fanout: the data-plane hot path.  One flow on a 2-shard real-clock
// SchedulerGroup, no tenants, no network, no edits:
//
//	source → pump → route tee ─ branch A (shard 0) ─┐
//	                          └ branch B (shard 1) ─┴ merge → pump → sink
//
// The route key is seeded and skewed about 70/30, and the per-item spin work
// is seeded: mostly light, with a heavy tail.  uthread, core, pipes and
// shard.Link do nearly all the work; netpipe, remote, qos and graph edits do
// none.
const (
	fanRate     = 20000 // paced items/s, well below saturated capacity
	fanRouteA   = 0.70  // share of items routed to branch A
	fanHeavy    = 0.05  // share of items with heavy work
	fanTeeDepth = 64
)

// fanout probe ids along the item path.
const (
	fpDue = iota
	fpPumped
	fpSplit
	fpAIn
	fpAOut
	fpBIn
	fpBOut
	fpPreSink
	fpArrival
)

var fanProbes = []string{"due", "pumped", "split", "a_in", "a_out", "b_in", "b_out", "presink", "arrival"}

var fanSteps = map[[2]int]string{
	{fpDue, fpPumped}:      "core.pump_lag",
	{fpPumped, fpSplit}:    "core.trunk",
	{fpSplit, fpAIn}:       "pipes.split_handoff",
	{fpSplit, fpBIn}:       "shard.link_in",
	{fpAIn, fpAOut}:        "work.branch_a",
	{fpBIn, fpBOut}:        "work.branch_b",
	{fpAOut, fpPreSink}:    "pipes.merge_handoff",
	{fpBOut, fpPreSink}:    "shard.link_out",
	{fpPreSink, fpArrival}: "core.sink",
}

// fanCell is one input of the table; the work filter writes out.
type fanCell struct {
	x      uint64
	rounds uint32
	route  uint8
	out    uint64
}

type fanInputs struct {
	cells []fanCell
	ref   []uint64 // reference result per table entry
}

func genFan(seed int64) (*fanInputs, string) {
	rng := rand.New(rand.NewSource(seed))
	in := &fanInputs{cells: make([]fanCell, tableSize), ref: make([]uint64, tableSize)}
	var raw []byte
	for i := range in.cells {
		c := &in.cells[i]
		c.x = rng.Uint64() | 1
		if rng.Float64() < fanHeavy {
			c.rounds = 1500 + uint32(rng.Intn(3000))
		} else {
			c.rounds = 50 + uint32(rng.Intn(250))
		}
		if rng.Float64() >= fanRouteA {
			c.route = 1
		}
		in.ref[i] = spin(c.x, c.rounds)
		raw = fmt.Appendf(raw, "%d,%d,%d;", c.x, c.rounds, c.route)
	}
	return in, digest(raw)
}

// fanRun is one deployment of the fanout graph.
type fanRun struct {
	grp   *shard.Group       // 2-shard target
	sched *uthread.Scheduler // 1-scheduler reference target
	d     *graph.Deployment
	src   *source
	pump  *anchoredPump // paced runs only
	snk   *sink
	setup time.Duration
}

type fanOpts struct {
	paced    bool
	items    int64         // paced: item count
	dur      time.Duration // saturated: how long the source offers items
	oneSched bool          // deploy on one scheduler instead of 2 shards
	tr       *tracer       // call spans (nil = untraced)
	probes   bool          // compose the probe stages (per-item spans)
	parent   int
}

func (in *fanInputs) deploy(o fanOpts) (*fanRun, error) {
	t0 := time.Now()
	r := &fanRun{}
	var tr *tracer // per-item stamps only in probed runs
	if o.probes {
		tr = o.tr
	}
	g := graph.New("fanout")
	r.src = newSource("src", o.items, func(seq int64, now time.Time) *item.Item {
		return item.New(&in.cells[(seq-1)%tableSize], seq, now)
	})
	var pump core.Pump = pipes.NewFreePump("pump")
	if o.paced {
		r.pump = newAnchoredPump("pump", fanRate)
		pump = r.pump
	}
	var arrivals []int64
	if o.paced {
		arrivals = make([]int64, o.items)
	}
	r.snk = newSink("sink", 0, tr, fpArrival, func(it *item.Item) bool {
		c := it.Payload.(*fanCell)
		return c.out == in.ref[(it.Seq-1)%tableSize] && it.Origin == int64(c.route)+1
	}, arrivals)
	work := func(name string) core.Stage {
		return core.Comp(pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			c := it.Payload.(*fanCell)
			c.out = spin(c.x, c.rounds)
			return it, nil
		}))
	}
	tee := pipes.NewRouteTee("tee", 2, fanTeeDepth, typespec.Block, typespec.Block,
		func(it *item.Item) int { return int(it.Payload.(*fanCell).route) })
	onB := []graph.NodeOption{graph.Place(1)}
	if o.oneSched {
		onB = nil
	}
	addProbe := func(name string, id int, opts ...graph.NodeOption) string {
		g.Add(core.Comp(newProbe(name, tr, 0, id)), opts...)
		return name
	}
	g.Add(core.Comp(r.src))
	g.Add(core.Pmp(pump))
	g.Split(tee)
	g.Add(work("wa"))
	g.Add(core.Pmp(pipes.NewFreePump("pa")))
	g.Add(work("wb"), onB...)
	g.Add(core.Pmp(pipes.NewFreePump("pb")), onB...)
	g.Merge(pipes.NewMergeTee("mrg", 2, fanTeeDepth, typespec.Block, typespec.Block))
	g.Add(core.Pmp(pipes.NewFreePump("po")))
	g.Add(core.Comp(r.snk))
	if tr == nil {
		g.Pipe("src", "pump", "tee")
		g.Pipe("tee:0", "wa", "pa", "mrg:0")
		g.Pipe("tee:1", "wb", "pb", "mrg:1")
		g.Pipe("mrg", "po", "sink")
	} else {
		g.Pipe("src", "pump", addProbe("p_pumped", fpPumped), addProbe("p_split", fpSplit), "tee")
		g.Pipe("tee:0", addProbe("p_ain", fpAIn), "wa", addProbe("p_aout", fpAOut), "pa", "mrg:0")
		g.Pipe("tee:1", addProbe("p_bin", fpBIn, onB...), "wb", addProbe("p_bout", fpBOut, onB...), "pb", "mrg:1")
		g.Pipe("mrg", "po", addProbe("p_presink", fpPreSink), "sink")
	}
	var target graph.Target
	if o.oneSched {
		r.sched = uthread.New(uthread.WithClock(vclock.Real{}))
		target = graph.OnScheduler(r.sched)
	} else {
		r.grp = shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())
		target = graph.OnGroup(r.grp)
	}
	sp := o.tr.begin("graph.Deploy", o.parent)
	d, err := g.Deploy(target)
	o.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("fanout deploy: %w", err)
	}
	r.d = d
	r.setup = time.Since(t0)
	return r, nil
}

// run starts the deployment (Deploy → Start), waits for the stream to end
// under the watchdog, and joins the schedulers.
func (r *fanRun) run(limit time.Duration) error {
	var errc <-chan error
	if r.grp != nil {
		r.grp.Start()
	} else {
		errc = r.sched.RunBackground()
	}
	r.d.Start()
	if err := watch("shard-fanout run", r.snk.done, limit, r.diagnose); err != nil {
		r.d.Stop()
		r.stopScheds()
		return err
	}
	if err := r.d.Wait(); err != nil {
		return err
	}
	if r.grp != nil {
		return r.grp.Wait()
	}
	return <-errc
}

func (r *fanRun) stopScheds() {
	if r.grp != nil {
		r.grp.Stop()
	} else {
		r.sched.Stop()
	}
}

func (r *fanRun) diagnose() string {
	var b strings.Builder
	b.WriteString(r.d.Stats().String())
	if r.grp != nil {
		for i, st := range r.grp.ShardStats() {
			fmt.Fprintf(&b, "shard %d switches=%d grants=%d timers=%d\n", i, st.Switches, st.Grants, st.Timers)
		}
	}
	fmt.Fprintf(&b, "source offered=%d sink delivered=%d bad=%d\n", r.src.produced(), r.snk.count.Load(), r.snk.bad.Load())
	return b.String()
}

func (r *fanRun) schedStats() uthread.Stats {
	if r.grp != nil {
		return r.grp.Stats()
	}
	return r.sched.Stats()
}

// check records the run's item outcomes: offered items are attempted work,
// and lost or rejected items are failures.
func (r *fanRun) check(rec *record, what string, runErr error) {
	offered, got, bad := r.src.produced(), r.snk.count.Load(), r.snk.bad.Load()
	rec.attempt(offered)
	if runErr != nil {
		rec.fail(fmt.Sprintf("%s: %v", what, runErr), offered-got+bad)
		return
	}
	if got != offered || bad != 0 {
		rec.fail(fmt.Sprintf("%s: offered %d, delivered %d, rejected %d (lost, duplicated, out of order or wrong result)",
			what, offered, got, bad), max(offered-got, 0)+bad)
	}
}

// fanPhase deploys, runs and checks one phase; it returns the run for its
// counters and the saturated measurement.
func fanPhase(in *fanInputs, rec *record, what string, o fanOpts, planned time.Duration) (*fanRun, satResult, error) {
	r, err := in.deploy(o)
	if err != nil {
		rec.attempt(1)
		rec.fail(fmt.Sprintf("%s: %v", what, err), 1)
		return nil, satResult{}, err
	}
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
	return r, delta(before, after, r.snk.count.Load(), wall), nil
}

func runFanout(cfg config, rec *record) error {
	in, dig := genFan(cfg.seed)
	fmt.Printf("inputs shard-fanout digest=%s table=%d paced_rate=%d/s\n", dig, tableSize, fanRate)
	if cfg.trace {
		return traceFanout(cfg, in, rec)
	}
	return rounds(cfg, rec, 0.4, 0.5, roundFuncs{
		warm: func() (time.Duration, error) {
			r, _, err := fanPhase(in, rec, "warm-up", fanOpts{dur: warmDur}, warmDur)
			if err != nil {
				return 0, err
			}
			return r.setup, nil
		},
		paced: func(d time.Duration) ([]float64, time.Duration, error) {
			r, _, err := fanPhase(in, rec, "paced run", fanOpts{paced: true, items: int64(d.Seconds() * fanRate)}, d)
			if err != nil {
				return nil, 0, err
			}
			return latencies(r.snk.arrivals, r.pump.due), r.setup, nil
		},
		saturated: func(d time.Duration) (satResult, time.Duration, error) {
			r, s, err := fanPhase(in, rec, "saturated run", fanOpts{dur: d}, d)
			if err != nil {
				return s, 0, err
			}
			return s, r.setup, nil
		},
	})
}

// traceFanout is the traced run of shard-fanout: untraced and traced
// saturated runs (tracing overhead, layer counters), untraced and traced
// paced runs (latency decomposition), the same graph on one scheduler
// (shard.speedup), and the clock's wait overshoot.
func traceFanout(cfg config, in *fanInputs, rec *record) error {
	paced := int64(cfg.budget(0.2).Seconds() * fanRate)
	tr := newTracer(fanProbes, fanSteps, 1, max(paced, traceCap))
	root := tr.begin("run", -1)
	satDur := cfg.budget(0.1)

	ph := tr.begin("phase.saturated.untraced", root)
	ru, su, err := fanPhase(in, rec, "untraced saturated", fanOpts{dur: satDur, tr: tr, parent: ph}, satDur)
	tr.end(ph)
	if err != nil {
		return err
	}
	sp := tr.begin("graph.Stats", ph)
	st := ru.d.Stats()
	tr.end(sp)
	sched := ru.schedStats()
	segmentMetrics(rec, st, su.wall)
	linkMetrics(rec, st, su.items)
	rec.set("uthread.switches_per_item", "ratio", ratio(float64(sched.Switches), float64(su.items)), nil, "saturated")
	rec.set("uthread.grants_per_item", "ratio", ratio(float64(sched.Grants), float64(su.items)), nil, "saturated")
	rec.set("item.allocs_per_item", "ratio", su.mallocsPerItem(), nil, "MemStats.Mallocs delta per item, saturated")

	untracedIPS, err := overheadRuns(rec, tr, root, su, func(traced bool, ph int) (satResult, error) {
		_, s, err := fanPhase(in, rec, "saturated", fanOpts{dur: satDur, tr: tr, probes: traced, parent: ph}, satDur)
		return s, err
	})
	if err != nil {
		return err
	}

	ph = tr.begin("phase.paced.untraced", root)
	rp, _, err := fanPhase(in, rec, "untraced paced", fanOpts{paced: true, items: paced, tr: tr, parent: ph}, cfg.budget(0.2))
	tr.end(ph)
	if err != nil {
		return err
	}
	untracedP50 := quantile(latencies(rp.snk.arrivals, rp.pump.due), 0.5)
	rec.set("uthread.timers_per_item", "ratio", ratio(float64(rp.schedStats().Timers), float64(paced)), nil, "paced")

	tr.reset()
	ph = tr.begin("phase.paced.traced", root)
	rt, _, err := fanPhase(in, rec, "traced paced", fanOpts{paced: true, items: paced, tr: tr, probes: true, parent: ph}, cfg.budget(0.2))
	tr.end(ph)
	if err != nil {
		return err
	}
	for seq := int64(1); seq <= paced; seq++ {
		tr.set(0, seq, fpDue, rt.pump.due(seq))
	}
	pumpLagMetrics(rec, tr, fpPumped)
	selfTimeMetrics(rec, tr, untracedP50)
	var splitMerge, link []float64
	for seq := int64(1); seq <= paced; seq++ {
		at := func(id int) int64 { return tr.ts[0][(seq-1)*int64(tr.k)+int64(id)] }
		if at(fpPreSink) == 0 || at(fpSplit) == 0 {
			continue
		}
		if at(fpAIn) != 0 {
			splitMerge = append(splitMerge, float64((at(fpPreSink)-at(fpSplit))-(at(fpAOut)-at(fpAIn)))/1e3)
		} else {
			splitMerge = append(splitMerge, float64((at(fpPreSink)-at(fpSplit))-(at(fpBOut)-at(fpBIn)))/1e3)
			link = append(link, float64(at(fpBIn)-at(fpSplit))/1e3, float64(at(fpPreSink)-at(fpBOut))/1e3)
		}
	}
	rec.set("pipes.split_merge_us", "us", quantile(splitMerge, 0.5), nil, "tee entry to merge exit minus branch work, paced")
	rec.set("shard.link_transit_us", "us", quantile(link, 0.5), nil, "per crossing of branch B, incl. tee/merge buffer and relay, paced")

	ph = tr.begin("phase.saturated.one_scheduler", root)
	_, one, err := fanPhase(in, rec, "one-scheduler saturated", fanOpts{dur: satDur, oneSched: true, tr: tr, parent: ph}, satDur)
	tr.end(ph)
	if err != nil {
		return err
	}
	two := median(untracedIPS)
	rec.set("shard.speedup", "ratio", ratio(two, one.itemsPerSec()), []float64{two, one.itemsPerSec()},
		"2-shard (median of the untraced runs) / 1-scheduler items/s, saturated")

	ph = tr.begin("phase.vclock", root)
	vclockMetrics(rec, tr, ph, 1000)
	tr.end(ph)
	rec.set("graph.deploy_ms", "ms", median(tr.callDurations("graph.Deploy")), tr.callDurations("graph.Deploy"), "Deploy call spans")
	absentLayers(rec, cfg.spec.PerLayer, "graph.edit_", "graph.rebalance_ms", "graph.op_latency", "netpipe.", "remote.", "qos.")
	return writeSpans(cfg, tr, root)
}
