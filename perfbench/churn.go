package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
)

// tenant-churn: many short tenanted flows and live surgery.  48 flows, each
// bound to its own tenant and placed whole on one shard of a 2-shard
// group:
//
//	source → pump → [admission] → work → copy tee → pump → sink
//	                                              └ (subscriber branch, attached and detached live)
//
// Weights of 1, 2 and 4 are assigned by seed; the weight-2 class is GCRA
// rate-limited below its offered rate (ShedDrop).  In a paced run of its
// own, a control goroutine fires a seeded schedule of RebindTenant,
// AttachBranch/DetachBranch, SwapStage and a periodic Rebalance.  The
// scheduler runs many threads in many SCFQ classes instead of
// shard-fanout's few long pumps; qos and graph surgery work while data
// flows, like writes beside reads; shard links carry nothing.
//
// The operations stay out of the latency rounds: each quiescing edit makes
// the edited flow's clocked pump skip one deadline, leaving every later
// item of that flow one period (5 ms) late, which made latency_p50_ms jump
// between about 1 and 5 ms across identical runs.  edit_lag_ms reports
// that lag instead.
const (
	churnFlows     = 48
	churnRate      = 200  // paced items/s per flow (9600 items/s in all)
	churnThrottleW = 2    // the rate-limited weight class
	churnAdmit     = 0.5  // its admission rate as a share of the paced rate
	churnTable     = 4096 // inputs per flow
	churnOpEvery   = 10 * time.Millisecond
	churnRebalance = 8 // every 8th operation is a Rebalance
	churnTeeDepth  = 16
)

// churn probe ids along the item path.
const (
	cpDue = iota
	cpPumped
	cpSplit
	cpIn
	cpArrival
)

var churnProbes = []string{"due", "pumped", "split", "in", "arrival"}

var churnSteps = map[[2]int]string{
	{cpDue, cpPumped}:   "core.pump_lag",
	{cpPumped, cpSplit}: "work.filter",
	{cpSplit, cpIn}:     "pipes.tee_handoff",
	{cpIn, cpArrival}:   "core.sink",
}

type churnInputs struct {
	weights []int
	cells   [][]fanCell // per flow; route unused
	ref     [][]uint64
}

func genChurn(seed int64) (*churnInputs, string) {
	rng := rand.New(rand.NewSource(seed))
	in := &churnInputs{weights: make([]int, churnFlows)}
	// A seeded permutation of a fixed multiset keeps the weight mix equal
	// across seeds; only which flow gets which weight varies.
	for i, p := range rng.Perm(churnFlows) {
		in.weights[i] = []int{1, 2, 4}[p%3]
	}
	var raw []byte
	raw = fmt.Appendf(raw, "%v;", in.weights)
	for f := 0; f < churnFlows; f++ {
		cells := make([]fanCell, churnTable)
		ref := make([]uint64, churnTable)
		for i := range cells {
			cells[i].x = rng.Uint64() | 1
			cells[i].rounds = 50 + uint32(rng.Intn(250))
			ref[i] = spin(cells[i].x, cells[i].rounds)
			raw = fmt.Appendf(raw, "%d,%d;", cells[i].x, cells[i].rounds)
		}
		in.cells = append(in.cells, cells)
		in.ref = append(in.ref, ref)
	}
	return in, digest(raw)
}

// churnFlow is one deployed flow of a churn run.
type churnFlow struct {
	d         *graph.Deployment
	tenant    *qos.Tenant
	src       *source
	pump      *anchoredPump
	snk       *sink
	audit     *sink // the tee's second base port
	split     string
	work      string
	throttled bool
	subs      []*sink // subscriber sinks ever attached
	subOn     int     // port of the attached subscriber, 0 = none
	ports     int     // ports the copy tee has had
	shard     int
}

// churnRun is one deployment of all flows on a fresh group.
type churnRun struct {
	grp   *shard.Group
	flows []*churnFlow
	setup time.Duration
}

type churnOpts struct {
	paced  bool
	items  int64 // per flow
	dur    time.Duration
	tr     *tracer
	probes bool
	ops    bool // fire the live operations (paced runs)
	parent int
}

func work(name string) core.Stage {
	return core.Comp(pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		c := it.Payload.(*fanCell)
		c.out = spin(c.x, c.rounds)
		return it, nil
	}))
}

func (in *churnInputs) verify(f int) func(*item.Item) bool {
	return func(it *item.Item) bool {
		return it.Payload.(*fanCell).out == in.ref[f][(it.Seq-1)%churnTable]
	}
}

func (in *churnInputs) deploy(o churnOpts) (*churnRun, error) {
	t0 := time.Now()
	var tr *tracer
	if o.probes {
		tr = o.tr
	}
	r := &churnRun{grp: shard.NewGroup(shard.WithShardCount(2), shard.WithRealClock())}
	for f := 0; f < churnFlows; f++ {
		n := func(s string) string { return fmt.Sprintf("f%d-%s", f, s) }
		fl := &churnFlow{shard: f % 2, ports: 2, split: n("cpy"), work: n("work"), throttled: in.weights[f] == churnThrottleW}
		on := graph.Place(fl.shard)
		g := graph.New(n("flow"))
		cells := in.cells[f]
		fl.src = newSource(n("src"), o.items, func(seq int64, now time.Time) *item.Item {
			return item.New(&cells[(seq-1)%churnTable], seq, now)
		})
		var pump core.Pump = pipes.NewFreePump(n("pump"))
		var arrivals, seqs []int64
		if o.paced {
			fl.pump = newAnchoredPump(n("pump"), churnRate)
			pump = fl.pump
			arrivals = make([]int64, o.items)
			seqs = make([]int64, 0, o.items)
		}
		fl.snk = newSink(n("sink"), f, tr, cpArrival, in.verify(f), arrivals)
		fl.snk.seqs = seqs
		g.Add(core.Comp(fl.src), on)
		g.Add(core.Pmp(pump), on)
		g.Add(work(n("work")), on)
		g.Split(pipes.NewCopyTee(n("cpy"), 2, churnTeeDepth, typespec.Block, typespec.Block), on)
		g.Add(core.Pmp(pipes.NewFreePump(n("p0"))), on)
		g.Add(core.Comp(fl.snk), on)
		g.Add(core.Pmp(pipes.NewFreePump(n("p1"))), on)
		fl.audit = newSink(n("audit"), f, nil, 0, in.verify(f), nil)
		g.Add(core.Comp(fl.audit), on)
		g.Pipe(n("cpy")+":1", n("p1"), n("audit"))
		if tr == nil {
			g.Pipe(n("src"), n("pump"), n("work"), n("cpy"))
			g.Pipe(n("cpy")+":0", n("p0"), n("sink"))
		} else {
			probe := func(s string, id int) string {
				g.Add(core.Comp(newProbe(n(s), tr, f, id)), on)
				return n(s)
			}
			g.Pipe(n("src"), n("pump"), probe("p_pumped", cpPumped), n("work"), probe("p_split", cpSplit), n("cpy"))
			g.Pipe(n("cpy")+":0", n("p0"), probe("p_in", cpIn), n("sink"))
		}
		opts := []qos.TenantOption{qos.Weight(in.weights[f]), qos.Shed(qos.ShedDrop)}
		if fl.throttled {
			opts = append(opts, qos.RateLimit(churnRate*churnAdmit, 2))
		}
		fl.tenant = qos.NewTenant(n("tenant"), opts...)
		sp := o.tr.begin("graph.Deploy", o.parent)
		d, err := g.Deploy(graph.OnGroup(r.grp).WithTenant(fl.tenant))
		o.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("churn deploy flow %d: %w", f, err)
		}
		fl.d = d
		r.flows = append(r.flows, fl)
	}
	r.setup = time.Since(t0)
	return r, nil
}

// start starts the group and every flow (Deploy → Start).  In a paced
// run flow f starts f/churnFlows of a pump period after flow 0, so the
// flows' clocked pumps fire evenly spread over each period.  Started all
// at once they line up by chance, and how many wake-ups coincide moved a
// round's latency_p50_ms between 0.37 and 0.61 ms.
func (r *churnRun) start(paced bool) {
	r.grp.Start()
	t0 := time.Now()
	for f, fl := range r.flows {
		if paced {
			due := t0.Add(time.Duration(f) * time.Second / (churnRate * churnFlows))
			for time.Now().Before(due) {
			}
		}
		fl.d.Start()
	}
}

// wait waits for every main sink under the watchdog, then joins the
// deployments and the group.
func (r *churnRun) wait(limit time.Duration) error {
	all := make(chan struct{})
	go func() {
		for _, fl := range r.flows {
			<-fl.snk.done
		}
		close(all)
	}()
	if err := watch("tenant-churn run", all, limit, r.diagnose); err != nil {
		for _, fl := range r.flows {
			fl.d.Stop()
		}
		r.grp.Stop()
		return err
	}
	for i, fl := range r.flows {
		if err := fl.d.Wait(); err != nil {
			return fmt.Errorf("flow %d: %w", i, err)
		}
	}
	return r.grp.Wait()
}

func (r *churnRun) diagnose() string {
	var b strings.Builder
	for i, fl := range r.flows {
		select {
		case <-fl.snk.done:
			continue
		default:
		}
		fmt.Fprintf(&b, "flow %d unfinished: offered=%d delivered=%d\n%s", i, fl.src.produced(), fl.snk.count.Load(), fl.d.Stats().String())
	}
	for i, st := range r.grp.ShardStats() {
		fmt.Fprintf(&b, "shard %d switches=%d grants=%d timers=%d\n", i, st.Switches, st.Grants, st.Timers)
	}
	return b.String()
}

// check records each flow's outcome: exactly-once per-origin order of the
// admitted items, admitted + sheds == offered, and subscriber branches
// holding a contiguous run of what the main sink saw.
func (r *churnRun) check(rec *record, what string, runErr error) {
	for i, fl := range r.flows {
		offered, got, bad := fl.src.produced(), fl.snk.count.Load(), fl.snk.bad.Load()
		adm, sheds := fl.tenant.Admitted(), fl.tenant.Sheds()
		rec.attempt(offered)
		switch {
		case runErr != nil:
			rec.fail(fmt.Sprintf("%s: flow %d: %v", what, i, runErr), max(adm-got, 0)+bad)
		case adm+sheds != offered:
			rec.fail(fmt.Sprintf("%s: flow %d: admitted %d + sheds %d != offered %d", what, i, adm, sheds, offered), max(offered-adm-sheds, 1))
		case got != adm || bad != 0:
			rec.fail(fmt.Sprintf("%s: flow %d: admitted %d, delivered %d, rejected %d", what, i, adm, got, bad), max(adm-got, 0)+bad)
		case fl.audit.count.Load() != adm || fl.audit.bad.Load() != 0:
			rec.fail(fmt.Sprintf("%s: flow %d: admitted %d, audit branch delivered %d, rejected %d", what, i, adm,
				fl.audit.count.Load(), fl.audit.bad.Load()), max(adm-fl.audit.count.Load(), 0)+fl.audit.bad.Load())
		case !fl.throttled && sheds != 0:
			rec.fail(fmt.Sprintf("%s: flow %d: unthrottled tenant shed %d items", what, i, sheds), sheds)
		}
		for _, sub := range fl.subs {
			if runErr == nil && !contiguous(fl.snk.seqs, sub.seqs) || sub.bad.Load() != 0 {
				rec.fail(fmt.Sprintf("%s: flow %d: subscriber %s saw %d items out of line with the main sink", what, i, sub.Name(), len(sub.seqs)), 1)
			}
		}
	}
}

// contiguous reports whether sub is a contiguous run of main.
func contiguous(main, sub []int64) bool {
	if len(sub) == 0 {
		return true
	}
	j := sort.Search(len(main), func(i int) bool { return main[i] >= sub[0] })
	if j+len(sub) > len(main) {
		return false
	}
	for k, s := range sub {
		if main[j+k] != s {
			return false
		}
	}
	return true
}

// delivered sums the main sinks' deliveries and returns the latest.
func (r *churnRun) delivered() (items, last int64) {
	for _, fl := range r.flows {
		items += fl.snk.count.Load()
		last = max(last, fl.snk.last.Load())
	}
	return items, last
}

// opResult is one timed live operation.
type opResult struct {
	kind string
	ms   float64
	err  error
}

// operate fires the seeded schedule of live operations until stop.
func (r *churnRun) operate(seed int64, until time.Time, tr *tracer, parent int) []opResult {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []opResult
	subN := 0
	next := time.Now()
	for n := 1; ; n++ {
		next = next.Add(churnOpEvery)
		if next.After(until) {
			return out
		}
		time.Sleep(time.Until(next))
		fl := r.flows[rng.Intn(len(r.flows))]
		var kind string
		var call func() error
		switch p := rng.Float64(); {
		case n%churnRebalance == 0:
			kind = "rebalance"
			hints := make(map[string]int)
			for seg := range fl.d.SegmentPlacements() {
				hints[seg] = 1 - fl.shard
			}
			call = func() error {
				err := fl.d.Rebalance(hints)
				if err == nil {
					fl.shard = 1 - fl.shard
				}
				return err
			}
		case p < 0.3:
			kind = "rebind"
			op := graph.RebindTenant{Weight: []int{1, 2, 4}[rng.Intn(3)]}
			if fl.throttled {
				op = graph.RebindTenant{SetRate: true, Rate: churnRate * (0.3 + 0.4*rng.Float64()), Burst: 2}
			}
			call = func() error { return fl.d.Edit(op) }
		case p < 0.7 && fl.subOn == 0:
			kind = "attach"
			subN++
			name := fmt.Sprintf("%s-sub%d", fl.snk.Name(), subN)
			sub := newSink(name, 0, nil, 0, nil, nil)
			sub.seqs = make([]int64, 0, 1024)
			op := graph.AttachBranch{Split: fl.split, Place: -1,
				Stages: []core.Stage{core.Pmp(pipes.NewFreePump(name + "-p")), core.Comp(sub)}}
			call = func() error {
				err := fl.d.Edit(op)
				if err == nil {
					fl.subs = append(fl.subs, sub)
					fl.subOn = fl.ports
					fl.ports++
				}
				return err
			}
		case p < 0.7:
			kind = "detach"
			op := graph.DetachBranch{Split: fl.split, Port: fl.subOn}
			call = func() error {
				err := fl.d.Edit(op)
				if err == nil {
					fl.subOn = 0
				}
				return err
			}
		default:
			kind = "swap"
			op := graph.SwapStage{Node: fl.work, Stage: work(fl.work)}
			call = func() error { return fl.d.Edit(op) }
		}
		name := "graph.Edit." + kind
		if kind == "rebalance" {
			name = "graph.Rebalance"
		}
		sp := tr.begin(name, parent)
		t0 := nowNs()
		err := call()
		ms := float64(nowNs()-t0) / 1e6
		tr.end(sp)
		out = append(out, opResult{kind: kind, ms: ms, err: err})
	}
}

// churnPhase deploys, runs and checks one phase, firing the live
// operations when asked to.
func churnPhase(in *churnInputs, rec *record, what string, o churnOpts, seed int64, planned time.Duration, keep func(*churnRun, satResult)) (*churnRun, []opResult, error) {
	r, err := in.deploy(o)
	if err != nil {
		rec.attempt(1)
		rec.fail(fmt.Sprintf("%s: %v", what, err), 1)
		return nil, nil, err
	}
	before := snapshot()
	if !o.paced {
		for _, fl := range r.flows {
			fl.src.deadline = ns(before.wall.Add(o.dur))
		}
	}
	r.start(o.paced)
	var ops []opResult
	if o.ops {
		ops = r.operate(seed, before.wall.Add(planned*85/100), o.tr, o.parent)
	}
	err = r.wait(planned + watchdogGrace)
	after := snapshot()
	r.check(rec, what, err)
	for _, op := range ops {
		rec.attempt(1)
		if op.err != nil {
			rec.fail(fmt.Sprintf("%s: %s: %v", what, op.kind, op.err), 1)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	items, last := r.delivered()
	res := delta(before, after, items, time.Duration(last-ns(before.wall)))
	if keep != nil {
		keep(r, res)
	}
	return r, ops, nil
}

// latencies returns every delivered item's latency (ms).
func (r *churnRun) latencies() []float64 {
	var out []float64
	for _, fl := range r.flows {
		out = append(out, latencies(fl.snk.arrivals, fl.pump.due)...)
	}
	return out
}

// shareError returns the largest gap, in percentage points, between an
// unthrottled tenant's share of its shard's unthrottled deliveries and its
// weight share there.
func (r *churnRun) shareError() float64 {
	worst := 0.0
	for sh := 0; sh < 2; sh++ {
		var items, weights float64
		for _, fl := range r.flows {
			if fl.shard == sh && !fl.throttled {
				items += float64(fl.snk.count.Load())
				weights += float64(fl.tenant.Weight())
			}
		}
		for _, fl := range r.flows {
			if fl.shard == sh && !fl.throttled {
				gap := float64(fl.snk.count.Load())/items - float64(fl.tenant.Weight())/weights
				worst = max(worst, math.Abs(gap)*100)
			}
		}
	}
	return worst
}

// opMetrics reports the wall time of the live operations.
func opMetrics(rec *record, ops []opResult, prefix string) {
	var all []float64
	by := make(map[string][]float64)
	for _, op := range ops {
		all = append(all, op.ms)
		by[op.kind] = append(by[op.kind], op.ms)
	}
	tail, label := tailQ(all)
	rec.set(prefix+"op_latency_p50_ms", "ms", quantile(all, 0.5), nil, fmt.Sprintf("Edit and Rebalance calls, n=%d", len(all)))
	rec.set(prefix+"op_latency_tail_ms", "ms", tail, nil, fmt.Sprintf("%s of n=%d", label, len(all)))
	if prefix == "" {
		return
	}
	for _, k := range []string{"attach", "detach", "swap", "rebind"} {
		rec.set("graph.edit_ms."+k, "ms", quantile(by[k], 0.5), nil, fmt.Sprintf("median of n=%d", len(by[k])))
	}
	rec.set("graph.rebalance_ms", "ms", quantile(by["rebalance"], 0.5), nil, fmt.Sprintf("median of n=%d", len(by["rebalance"])))
}

func runChurn(cfg config, rec *record) error {
	in, dig := genChurn(cfg.seed)
	fmt.Printf("inputs tenant-churn digest=%s flows=%d weights=%v paced_rate=%d/s per flow\n", dig, churnFlows, in.weights, churnRate)
	if cfg.trace {
		return traceChurn(cfg, in, rec)
	}
	var quiet []float64
	var share []float64
	err := rounds(cfg, rec, 0.35, 0.4, roundFuncs{
		warm: func() (time.Duration, error) {
			r, _, err := churnPhase(in, rec, "warm-up", churnOpts{dur: warmDur}, cfg.seed, warmDur, nil)
			if err != nil {
				return 0, err
			}
			return r.setup, nil
		},
		paced: func(d time.Duration) ([]float64, time.Duration, error) {
			r, _, err := churnPhase(in, rec, "paced run", churnOpts{paced: true, items: churnItems(d)}, cfg.seed, d, nil)
			if err != nil {
				return nil, 0, err
			}
			lat := r.latencies()
			quiet = append(quiet, lat...)
			return lat, r.setup, nil
		},
		saturated: func(d time.Duration) (satResult, time.Duration, error) {
			var sat satResult
			r, _, err := churnPhase(in, rec, "saturated run", churnOpts{dur: d}, cfg.seed, d, func(r *churnRun, s satResult) {
				sat = s
				share = append(share, r.shareError())
			})
			if err != nil {
				return sat, 0, err
			}
			return sat, r.setup, nil
		},
	})
	if err != nil {
		return err
	}
	rec.set("share_error_pct", "%", median(share), share, "largest unthrottled tenant share gap, saturated runs")
	return churnOps(cfg, in, rec, cfg.budget(0.15), mean(quiet), "", nil, -1)
}

// churnItems is the per-flow item count of a paced run of duration d.
func churnItems(d time.Duration) int64 { return int64(d.Seconds() * churnRate) }

// churnOps runs the paced phase with the live operations.  It reports the
// operations' wall time and the lag they leave behind: the mean latency
// of this phase minus that of the quiet paced phase (quietMean, ms).  A
// quiescing edit makes a flow's clocked pump skip one deadline, so every
// later item of that flow is one period late; the lag shows it.
func churnOps(cfg config, in *churnInputs, rec *record, d time.Duration, quietMean float64, prefix string, tr *tracer, parent int) error {
	r, ops, err := churnPhase(in, rec, "paced phase with live operations", churnOpts{paced: true, items: churnItems(d), ops: true, tr: tr, parent: parent}, cfg.seed, d, nil)
	if err != nil {
		return err
	}
	opMetrics(rec, ops, prefix)
	rec.set(prefix+"edit_lag_ms", "ms", mean(r.latencies())-quietMean, nil,
		fmt.Sprintf("mean latency with live operations minus without, %d operations", len(ops)))
	return nil
}

// traceChurn is the traced run of tenant-churn: untraced and traced
// saturated runs (overhead, scheduler and QoS counters), untraced and
// traced paced runs (latency decomposition), the paced run with the live
// operations (operation latency), and the clock's wait overshoot.
func traceChurn(cfg config, in *churnInputs, rec *record) error {
	pacedDur := cfg.budget(0.15)
	paced := churnItems(pacedDur)
	tr := newTracer(churnProbes, churnSteps, churnFlows, max(paced, 1<<13))
	root := tr.begin("run", -1)
	satDur := cfg.budget(0.1)

	var su satResult
	ph := tr.begin("phase.saturated.untraced", root)
	_, _, err := churnPhase(in, rec, "untraced saturated", churnOpts{dur: satDur, tr: tr, parent: ph}, cfg.seed, satDur, func(r *churnRun, s satResult) {
		su = s
		var st graph.GraphStats
		var offered, admitted int64
		debt := 0.0
		var byWeight []float64
		for _, fl := range r.flows {
			sp := tr.begin("graph.Stats", ph)
			fs := fl.d.Stats()
			tr.end(sp)
			st.Segments = append(st.Segments, fs.Segments...)
			st.Links = append(st.Links, fs.Links...)
			if len(st.Shards) == 0 {
				st.Shards = make([]graph.ShardLoad, len(fs.Shards))
			}
			for i, sh := range fs.Shards {
				st.Shards[i].BusyNanos += sh.BusyNanos
				st.Shards[i].Items += sh.Items
			}
			for _, t := range fs.Tenants {
				debt = max(debt, float64(t.CreditDebt))
			}
			offered += fl.src.produced()
			admitted += fl.tenant.Admitted()
		}
		// Grant share against weight share, per shard, over the unthrottled
		// tenants (1.0 = exactly weighted-fair).
		for sh := 0; sh < 2; sh++ {
			var shares, weights float64
			var rows []graph.TenantStats
			for _, fl := range r.flows {
				if fl.shard != sh || fl.throttled {
					continue
				}
				for _, t := range fl.d.Stats().Tenants {
					shares += t.Share
					weights += float64(t.Weight)
					rows = append(rows, t)
				}
			}
			for _, t := range rows {
				byWeight = append(byWeight, ratio(t.Share/shares, float64(t.Weight)/weights))
			}
		}
		segmentMetrics(rec, st, s.wall)
		linkMetrics(rec, st, s.items)
		sched := r.grp.Stats()
		rec.set("uthread.switches_per_item", "ratio", ratio(float64(sched.Switches), float64(s.items)), nil, "saturated")
		rec.set("uthread.grants_per_item", "ratio", ratio(float64(sched.Grants), float64(s.items)), nil, "saturated")
		rec.set("item.allocs_per_item", "ratio", s.mallocsPerItem(), nil, "MemStats.Mallocs delta per item, saturated")
		rec.set("qos.admit_ratio", "ratio", ratio(float64(admitted), float64(offered)), []float64{float64(admitted), float64(offered)}, "admitted / offered, all tenants, saturated")
		rec.set("qos.credit_debt_max", "units", debt, nil, "largest TenantStats.CreditDebt, saturated")
		rec.set("qos.share_by_weight", "ratio", median(byWeight), byWeight, "grant share / weight share, unthrottled tenants, saturated")
		rec.set("qos.share_error_pct", "%", r.shareError(), nil, "largest unthrottled tenant delivered-share gap, saturated")
	})
	tr.end(ph)
	if err != nil {
		return err
	}

	_, err = overheadRuns(rec, tr, root, su, func(traced bool, ph int) (satResult, error) {
		var s satResult
		_, _, err := churnPhase(in, rec, "saturated", churnOpts{dur: satDur, tr: tr, probes: traced, parent: ph}, cfg.seed, satDur,
			func(_ *churnRun, res satResult) { s = res })
		return s, err
	})
	if err != nil {
		return err
	}

	ph = tr.begin("phase.paced.untraced", root)
	rp, _, err := churnPhase(in, rec, "untraced paced", churnOpts{paced: true, items: paced, tr: tr, parent: ph}, cfg.seed, pacedDur, func(r *churnRun, _ satResult) {
		rec.set("uthread.timers_per_item", "ratio", ratio(float64(r.grp.Stats().Timers), float64(paced*churnFlows)), nil, "paced")
	})
	tr.end(ph)
	if err != nil {
		return err
	}
	quiet := rp.latencies()

	tr.reset()
	ph = tr.begin("phase.paced.traced", root)
	rt, _, err := churnPhase(in, rec, "traced paced", churnOpts{paced: true, items: paced, tr: tr, probes: true, parent: ph}, cfg.seed, pacedDur, nil)
	tr.end(ph)
	if err != nil {
		return err
	}
	for f, fl := range rt.flows {
		for seq := int64(1); seq <= paced; seq++ {
			tr.set(f, seq, cpDue, fl.pump.due(seq))
		}
	}
	pumpLagMetrics(rec, tr, cpPumped)
	selfTimeMetrics(rec, tr, quantile(quiet, 0.5))

	ph = tr.begin("phase.paced.operations", root)
	err = churnOps(cfg, in, rec, cfg.budget(0.2), mean(quiet), "graph.", tr, ph)
	tr.end(ph)
	if err != nil {
		return err
	}

	ph = tr.begin("phase.vclock", root)
	vclockMetrics(rec, tr, ph, 1000)
	tr.end(ph)
	rec.set("graph.deploy_ms", "ms", median(tr.callDurations("graph.Deploy")), nil, "Deploy call spans, one per flow")
	absentLayers(rec, cfg.spec.PerLayer, "pipes.split_merge", "shard.link_transit", "shard.speedup", "netpipe.", "remote.")
	return writeSpans(cfg, tr, root)
}
