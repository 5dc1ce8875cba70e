package graph_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/qos"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// This file tests Deployment.Edit — live graph surgery on local targets:
// mid-stream insert/swap/attach/detach with exactly-once delivery across
// the quiesce, transactional rollback of invalid batches, live tenant
// rebinding, and the detach-vs-EOS race (the chaos CI job runs it under
// -race).

// editWait busy-waits until the sink holds at least n items or the
// deployment drains; virtual time races ahead in real microseconds, so the
// poll must stay on the CPU.
func editWait(d *graph.Deployment, sink *pipes.CollectSink, n int) {
	for sink.Count() < n {
		select {
		case <-d.Done():
			return
		default:
			runtime.Gosched()
		}
	}
}

// editThrottle builds a pass-through stage that stalls real time every few
// items: the virtual-clock run otherwise drains in microseconds, leaving no
// real-time window for a concurrent Edit to land mid-stream.
func editThrottle(name string) core.Stage {
	return core.Comp(pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		if it.Seq%20 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		return it, nil
	}))
}

// TestEditInsertAndSwapMidStream applies one transactional batch — swap a
// filter's implementation and splice a new stage into a live edge — while
// the stream runs.  Every item must arrive exactly once, items that passed
// before the quiesce carry the old pipeline's payload transform, items
// after it carry the new one, and the boundary is a single clean switch
// (no interleaving: the edit landed at one pump-cycle boundary).
func TestEditInsertAndSwapMidStream(t *testing.T) {
	const items = 1200
	attempt := func() (edited bool) {
		g := graph.New("editchain")
		g.Add(core.Comp(pipes.NewCounterSource("src", items)))
		g.Add(core.Pmp(pipes.NewClockedPump("pump", 1000)))
		f := pipes.NewFuncFilter("f", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			it.Payload = it.Seq * 2
			return it, nil
		})
		g.Add(core.Comp(f))
		g.Add(editThrottle("slow"))
		sink := pipes.NewCollectSink("sink")
		g.Add(core.Comp(sink))
		g.Pipe("src", "pump", "slow", "f", "sink")

		grp := shard.NewGroup(shard.WithShardCount(2))
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		grp.Start()
		d.Start()
		editWait(d, sink, items/8)

		f2 := pipes.NewFuncFilter("f2", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			it.Payload = it.Seq * 3
			return it, nil
		})
		plus := pipes.NewFuncFilter("plus", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			p, _ := it.Payload.(int64)
			it.Payload = p + 1
			return it, nil
		})
		err = d.Edit(
			graph.SwapStage{Node: "f", Stage: core.Comp(f2)},
			graph.InsertStage{From: "f", To: "sink", Stage: core.Comp(plus)},
		)
		if err != nil && err != graph.ErrDeploymentDone {
			t.Fatalf("edit: %v", err)
		}
		if werr := d.Wait(); werr != nil {
			t.Fatalf("wait: %v", werr)
		}
		if gerr := grp.Wait(); gerr != nil {
			t.Fatalf("group wait: %v", gerr)
		}

		got := sink.Items()
		if len(got) != items {
			t.Fatalf("sink holds %d items, want %d", len(got), items)
		}
		pre, post := 0, 0
		for i, it := range got {
			if it.Seq != int64(i+1) {
				t.Fatalf("item %d has seq %d (loss, duplication, or reordering across the edit)", i, it.Seq)
			}
			switch it.Payload {
			case it.Seq * 2: // old filter, no spliced stage
				if post > 0 {
					t.Fatalf("seq %d carries the pre-edit transform after the edit boundary", it.Seq)
				}
				pre++
			case it.Seq*3 + 1: // swapped filter and spliced stage together
				post++
			default:
				t.Fatalf("seq %d payload %v matches neither pre- nor post-edit pipeline", it.Seq, it.Payload)
			}
		}
		return err == nil && pre > 0 && post > 0
	}
	for i := 0; i < 6; i++ {
		if attempt() {
			return
		}
	}
	t.Fatal("edit never landed mid-stream in 6 runs; the harness is not exercising live surgery")
}

// TestEditAttachDetachBranch runs one batch against a live copy tee: a new
// subscriber branch attaches (and receives the tail of the stream from the
// quiesce point on) while an existing branch detaches (and drains what it
// already received into a clean end of stream).  The untouched branch must
// see the complete stream.
func TestEditAttachDetachBranch(t *testing.T) {
	const items = 1200
	attempt := func() (edited bool) {
		g := graph.New("editfan")
		g.Add(core.Comp(pipes.NewCounterSource("src", items)))
		g.Add(core.Pmp(pipes.NewClockedPump("pump", 1000)))
		tee := pipes.NewCopyTee("cpy", 2, 8, typespec.Block, typespec.Block)
		g.Split(tee)
		g.Add(editThrottle("slow"))
		g.Pipe("src", "pump", "slow", "cpy")
		sink0 := pipes.NewCollectSink("sink0")
		g.Add(core.Pmp(pipes.NewFreePump("p0")))
		g.Add(core.Comp(sink0))
		g.Pipe("cpy:0", "p0", "sink0")
		sink1 := pipes.NewCollectSink("sink1")
		g.Add(core.Pmp(pipes.NewFreePump("p1")), graph.Place(1))
		g.Add(core.Comp(sink1), graph.Place(1))
		g.Pipe("cpy:1", "p1", "sink1")

		grp := shard.NewGroup(shard.WithShardCount(2))
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		grp.Start()
		d.Start()
		editWait(d, sink0, items/8)

		joined := pipes.NewCollectSink("joined")
		err = d.Edit(
			graph.AttachBranch{
				Split:  "cpy",
				Stages: []core.Stage{core.Pmp(pipes.NewFreePump("pj")), core.Comp(joined)},
				Place:  -1,
			},
			graph.DetachBranch{Split: "cpy", Port: 1},
		)
		if err != nil && err != graph.ErrDeploymentDone {
			t.Fatalf("edit: %v", err)
		}
		if werr := d.Wait(); werr != nil {
			t.Fatalf("wait: %v", werr)
		}
		if gerr := grp.Wait(); gerr != nil {
			t.Fatalf("group wait: %v", gerr)
		}

		// The untouched branch saw everything, exactly once, in order.
		full := sink0.Items()
		if len(full) != items {
			t.Fatalf("untouched branch holds %d items, want %d", len(full), items)
		}
		for i, it := range full {
			if it.Seq != int64(i+1) {
				t.Fatalf("untouched branch item %d has seq %d", i, it.Seq)
			}
		}
		// The leaving branch drained a contiguous prefix and nothing more.
		left := sink1.Items()
		for i, it := range left {
			if it.Seq != int64(i+1) {
				t.Fatalf("detached branch item %d has seq %d; want the contiguous prefix of the stream", i, it.Seq)
			}
		}
		// The joining branch received a contiguous tail from the edit point.
		tail := joined.Items()
		for i := 1; i < len(tail); i++ {
			if tail[i].Seq != tail[i-1].Seq+1 {
				t.Fatalf("joined branch skipped from seq %d to %d", tail[i-1].Seq, tail[i].Seq)
			}
		}
		if len(tail) > 0 && tail[len(tail)-1].Seq != items {
			t.Fatalf("joined branch ends at seq %d, want %d", tail[len(tail)-1].Seq, items)
		}
		return err == nil && len(tail) > 0 && len(left) < items
	}
	for i := 0; i < 6; i++ {
		if attempt() {
			return
		}
	}
	t.Fatal("attach/detach never landed mid-stream in 6 runs")
}

// editRefusalGraph builds a graph with every structure the validation layer
// guards: a cut, a route diamond into a merge, pumps and plain stages, and a
// scalable stage "w" carrying a placement hint.
func editRefusalGraph() (*graph.Graph, *pipes.CollectSink) {
	g := graph.New("editguard")
	g.Add(core.Comp(pipes.NewCounterSource("src", 60)))
	g.Add(core.Pmp(pipes.NewFreePump("pump")))
	g.Add(core.Comp(pipes.NewCountingProbe("f")))
	g.Pipe("src", "pump", "f")
	g.Add(core.Comp(pipes.NewCountingProbe("c")))
	g.Cut("f", "c")
	g.Add(core.Pmp(pipes.NewFreePump("pc")))
	tee := pipes.NewRouteTee("tee", 2, 8, typespec.Block, typespec.Block,
		func(it *item.Item) int { return int((it.Seq - 1) % 2) })
	g.Split(tee)
	g.Pipe("c", "pc", "tee")
	mrg := pipes.NewMergeTee("mrg", 2, 8, typespec.Block, typespec.Block)
	g.Merge(mrg)
	for i := 0; i < 2; i++ {
		p := fmt.Sprintf("pb%d", i)
		g.Add(core.Pmp(pipes.NewFreePump(p)))
		g.Pipe(fmt.Sprintf("tee:%d", i), p, fmt.Sprintf("mrg:%d", i))
	}
	g.Add(core.Pmp(pipes.NewFreePump("po")))
	g.Add(core.Comp(pipes.NewCountingProbe("w")), graph.Place(1))
	sink := pipes.NewCollectSink("sink")
	g.Add(core.Comp(sink))
	g.Pipe("mrg", "po", "w", "sink")
	return g, sink
}

// TestEditValidationAndRollback drives the refusal matrix and proves the
// transaction property: a batch with one valid and one invalid op must
// reject atomically — the valid op's stage name stays free, the flow runs
// untouched — and a subsequent valid edit with the same name succeeds.
// The doomed batches exercise every entry of the rollback's undo log: a
// split's port count (AttachBranch), its detached ports (DetachBranch), a
// node's implementation (SwapStage) and its placement hint (ScaleStage).
func TestEditValidationAndRollback(t *testing.T) {
	g, sink := editRefusalGraph()
	grp := shard.NewGroup(shard.WithShardCount(2))
	d, err := g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	// The schedulers must run for the quiesce machinery to reach its
	// pump-cycle boundary; the flow itself stays dormant until d.Start().
	grp.Start()

	ident := func(name string) core.Stage {
		return core.Comp(pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
			return it, nil
		}))
	}
	refusals := []struct {
		ops  []graph.EditOp
		want string
	}{
		{[]graph.EditOp{graph.AttachBranch{Split: "src", Stages: []core.Stage{ident("x")}}}, "is not a split"},
		{[]graph.EditOp{graph.AttachBranch{Split: "tee"}}, "no stages"},
		{[]graph.EditOp{graph.InsertStage{From: "pump", To: "nosuch", Stage: ident("x")}}, "is not a plain stage"},
		{[]graph.EditOp{graph.InsertStage{From: "f", To: "c", Stage: ident("x")}}, "explicit boundaries"},
		{[]graph.EditOp{graph.InsertStage{From: "w", To: "sink", Stage: ident("pump")}}, "already in the graph"},
		{[]graph.EditOp{graph.SwapStage{Node: "po", Stage: ident("x")}}, "flavor"},
		{[]graph.EditOp{graph.DetachBranch{Split: "tee", Port: 0}}, "only pure sink branches"},
		{[]graph.EditOp{graph.DetachBranch{Split: "tee", Port: 7}}, "no attached branch"},
		// The transaction: a perfectly valid insert rides with a doomed swap.
		{[]graph.EditOp{
			graph.InsertStage{From: "w", To: "sink", Stage: ident("spliced")},
			graph.SwapStage{Node: "nosuch", Stage: ident("y")},
		}, "is not a plain stage"},
		// A valid attach and a valid swap ride with a doomed swap.
		{[]graph.EditOp{
			graph.AttachBranch{Split: "tee", Place: -1, Stages: []core.Stage{
				core.Pmp(pipes.NewFreePump("ap")), core.Comp(pipes.NewCollectSink("asink"))}},
			graph.SwapStage{Node: "f", Stage: ident("f2")},
			graph.SwapStage{Node: "nosuch", Stage: ident("y")},
		}, "is not a plain stage"},
		// A valid scale-out of the hinted stage rides with a doomed swap.
		{[]graph.EditOp{
			graph.ScaleStage{Node: "w", Replicas: 2, Build: func(i int) (core.Stage, error) {
				return ident(fmt.Sprintf("w#%d", i)), nil
			}},
			graph.SwapStage{Node: "nosuch", Stage: ident("y")},
		}, "is not a plain stage"},
	}
	for _, rc := range refusals {
		err := d.Edit(rc.ops...)
		if err == nil || !strings.Contains(err.Error(), rc.want) {
			t.Fatalf("Edit(%+v) = %v, want an error containing %q", rc.ops, err, rc.want)
		}
	}

	// The scaled node keeps its placement hint: its segment still plans
	// onto shard 1.
	plan, err := g.Plan()
	if err != nil {
		t.Fatalf("plan after rollback: %v", err)
	}
	for _, seg := range plan.Segments {
		if seg.Stages[len(seg.Stages)-1] == "sink" && seg.Place != 1 {
			t.Fatalf("segment %s plans onto shard %d after the rolled-back scale, want 1", seg.Name(), seg.Place)
		}
	}
	// A lone attach still gets the split's next port (2): a leaked port
	// count would declare port 3 against the instance's 2 and fail.
	if err := d.Edit(graph.AttachBranch{Split: "tee", Place: -1, Stages: []core.Stage{
		core.Pmp(pipes.NewFreePump("ap")), core.Comp(pipes.NewCollectSink("asink"))}}); err != nil {
		t.Fatalf("attach after rollback: %v", err)
	}
	// A doomed detach of the new branch leaves it attached.
	if err := d.Edit(graph.DetachBranch{Split: "tee", Port: 2},
		graph.SwapStage{Node: "nosuch", Stage: ident("y")}); err == nil {
		t.Fatal("doomed detach batch applied")
	}
	if plan, err = g.Plan(); err != nil {
		t.Fatalf("plan after attach: %v", err)
	}
	if br := plan.SplitBranch["tee"]; len(br) != 3 || br[2] < 0 || plan.Segments[br[2]].Stages[0] != "ap" {
		t.Fatalf("tee branches after attach and rolled-back detach = %v, want the new branch attached at port 2", br)
	}

	// The rolled-back batch must not have leaked the valid op's name: the
	// same insert, alone, applies cleanly.
	marked := 0
	splice := core.Comp(pipes.NewFuncFilter("spliced", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		marked++
		return it, nil
	}))
	if err := d.Edit(graph.InsertStage{From: "w", To: "sink", Stage: splice}); err != nil {
		t.Fatalf("edit after rollback: %v", err)
	}

	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}
	if sink.Count() != 60 {
		t.Fatalf("sink holds %d items after the refusal gauntlet, want 60", sink.Count())
	}
	if marked != 60 {
		t.Fatalf("spliced stage saw %d items, want 60 (the post-rollback edit must be live)", marked)
	}

	// The rolled-back swap of f must not survive in the declaration: a
	// fresh deploy of the graph materializes the original f, not f2.
	sched := uthread.New()
	d2, err := g.Deploy(graph.OnScheduler(sched))
	if err != nil {
		t.Fatalf("redeploy: %v", err)
	}
	if p, ok := d2.Segment("src>>f"); !ok {
		t.Fatal("redeploy has no segment src>>f")
	} else if _, leaked := p.Placement("f2"); leaked {
		t.Fatal("the rolled-back SwapStage leaked into the graph declaration")
	}
	d2.Stop()
	if err := sched.Run(); err != nil {
		t.Fatalf("redeploy run: %v", err)
	}
}

// TestEditRebindTenantLive retunes a running tenant's weight through Edit
// and requires the scheduler to honor it immediately: with weights 3:1 the
// light tenant makes ~1/3 progress, after a mid-stream rebind to 3:12 it
// must outpace the heavy one — observable in sink progress within the same
// run, no quiesce involved.
func TestEditRebindTenantLive(t *testing.T) {
	const items = 4000
	grp := shard.NewGroup(shard.WithShardCount(1))

	mkFlow := func(name string, probe *pipes.FuncFilter) (*graph.Graph, *pipes.CollectSink) {
		g := graph.New(name)
		sink := pipes.NewCollectSink(name + "-sink")
		g.Add(core.Comp(pipes.NewCounterSource(name+"-src", items)))
		g.Add(core.Pmp(pipes.NewFreePump(name + "-p")))
		g.Add(core.Comp(sink))
		refs := []string{name + "-src", name + "-p"}
		if probe != nil {
			g.Add(core.Comp(probe))
			refs = append(refs, probe.Name())
		}
		g.Pipe(append(refs, name+"-sink")...)
		return g, sink
	}

	var (
		dLight    *graph.Deployment
		lightSink *pipes.CollectSink
		atRebind  int
		atEnd     int
	)
	// In-band probe on the heavy flow: halfway through, rebind the light
	// tenant's weight 1 -> 12 (RebindTenant needs no quiesce, so firing it
	// from a pipeline thread is safe); at the end, snapshot again.
	probe := pipes.NewFuncFilter("hv-probe", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		switch it.Seq {
		case items / 2:
			atRebind = lightSink.Count()
			if err := dLight.Edit(graph.RebindTenant{Weight: 12}); err != nil {
				return nil, err
			}
		case items:
			atEnd = lightSink.Count()
		}
		return it, nil
	})
	gHeavy, _ := mkFlow("hv", probe)
	gLight, ls := mkFlow("lt", nil)
	lightSink = ls

	heavy := qos.NewTenant("heavy", qos.Weight(3))
	light := qos.NewTenant("light", qos.Weight(1))
	dHeavy, err := gHeavy.Deploy(graph.OnGroup(grp).WithTenant(heavy))
	if err != nil {
		t.Fatalf("heavy deploy: %v", err)
	}
	dLight, err = gLight.Deploy(graph.OnGroup(grp).WithTenant(light))
	if err != nil {
		t.Fatalf("light deploy: %v", err)
	}
	grp.Start()
	dHeavy.Start()
	dLight.Start()
	if err := dHeavy.Wait(); err != nil {
		t.Fatalf("heavy wait: %v", err)
	}
	if err := dLight.Wait(); err != nil {
		t.Fatalf("light wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}

	// Phase 1 (3:1): light trails well behind the heavy half-mark.  Phase 2
	// (3:12): light must gain more than it did in all of phase 1.  Both
	// bands are wide — run-token stretches blur the edges — but they rule
	// out a rebind that silently never reached the scheduler.
	if atRebind <= 0 || atRebind > items/2 {
		t.Fatalf("light tenant at %d of %d at the rebind under 3:1 weights; want under the heavy half-mark", atRebind, items)
	}
	gained := atEnd - atRebind
	if gained <= atRebind {
		t.Fatalf("light tenant gained %d after the rebind vs %d before; weight 1->12 must accelerate it", gained, atRebind)
	}
	if lightSink.Count() != items {
		t.Fatalf("light tenant delivered %d of %d", lightSink.Count(), items)
	}
	if light.Weight() != 12 {
		t.Fatalf("light tenant weight %d after rebind, want 12", light.Weight())
	}
}

// TestEditRebindRatePreservesAdmission retunes a shedding tenant's rate
// limit mid-overload and checks the admission ledger stays conserved:
// every offered item is either admitted (and reaches the sink) or shed —
// through the rebind, with no double count and no gap.
func TestEditRebindRatePreservesAdmission(t *testing.T) {
	const items = 300
	g := graph.New("rebindrate")
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 400)))
	sink := pipes.NewCollectSink("sink")
	var d *graph.Deployment
	retuned := false
	probe := pipes.NewFuncFilter("probe", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		if !retuned && sink.Count() >= items/6 {
			retuned = true
			if err := d.Edit(graph.RebindTenant{Rate: 200, Burst: 2, SetRate: true}); err != nil {
				return nil, err
			}
		}
		return it, nil
	})
	g.Add(core.Comp(probe))
	g.Add(core.Comp(sink))
	g.Pipe("src", "pump", "probe", "sink")

	tn := qos.NewTenant("capped", qos.Weight(2), qos.RateLimit(100, 1))
	grp := shard.NewGroup(shard.WithShardCount(2))
	var err error
	d, err = g.Deploy(graph.OnGroup(grp).WithTenant(tn))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	grp.Start()
	d.Start()
	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}
	if !retuned {
		t.Fatal("the rebind never fired")
	}
	if got := tn.Admitted() + tn.Sheds(); got != items {
		t.Fatalf("admitted %d + sheds %d = %d, want %d offered (the ledger leaked across the rebind)",
			tn.Admitted(), tn.Sheds(), got, items)
	}
	if tn.Sheds() == 0 {
		t.Fatal("a 400/s source through a rate-limited tenant shed nothing; the test is not exercising overload")
	}
	if int64(sink.Count()) != tn.Admitted() {
		t.Fatalf("sink saw %d items but the tenant admitted %d", sink.Count(), tn.Admitted())
	}
	row := d.Stats().Tenants[0]
	if row.Admitted != tn.Admitted() || row.Sheds != tn.Sheds() {
		t.Fatalf("stats row %d/%d diverges from the tenant ledger %d/%d",
			row.Admitted, row.Sheds, tn.Admitted(), tn.Sheds())
	}
}

// TestTenantCountersSurviveRebalanceMidOverload is the satellite-3
// regression: a rebalance AND a structural edit both land while a
// rate-limited tenant is actively shedding, and the per-tenant counters
// must stay cumulative — admitted + sheds == offered, the sink agrees with
// the admitted count, and the deployment's stats row agrees with the
// tenant's own ledger.
func TestTenantCountersSurviveRebalanceMidOverload(t *testing.T) {
	const items = 2000
	g := graph.New("overload")
	g.Add(core.Comp(pipes.NewCounterSource("src", items)))
	g.Add(core.Pmp(pipes.NewClockedPump("pump", 2000)))
	g.Add(core.Comp(pipes.NewCountingProbe("f")))
	g.Pipe("src", "pump", "f")
	g.Add(core.Comp(pipes.NewCountingProbe("c")))
	g.Cut("f", "c")
	g.Add(core.Pmp(pipes.NewFreePump("pc")), graph.Place(1))
	sink := pipes.NewCollectSink("sink")
	g.Add(core.Comp(sink), graph.Place(1))
	g.Pipe("c", "pc", "sink")

	tn := qos.NewTenant("capped", qos.Weight(2), qos.RateLimit(500, 2))
	grp := shard.NewGroup(shard.WithShardCount(2))
	d, err := g.Deploy(graph.OnGroup(grp).WithTenant(tn))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	grp.Start()
	d.Start()

	editWait(d, sink, items/10)
	hints := make(map[string]int)
	for name := range d.SegmentPlacements() {
		hints[name] = 0
	}
	if err := d.Rebalance(hints); err != nil && err != graph.ErrDeploymentDone {
		t.Fatalf("rebalance: %v", err)
	}
	editWait(d, sink, items/5)
	ident := core.Comp(pipes.NewFuncFilter("mid", func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		return it, nil
	}))
	if err := d.Edit(graph.InsertStage{From: "pc", To: "sink", Stage: ident}); err != nil && err != graph.ErrDeploymentDone {
		t.Fatalf("edit: %v", err)
	}

	if err := d.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("group wait: %v", err)
	}

	if got := tn.Admitted() + tn.Sheds(); got != items {
		t.Fatalf("admitted %d + sheds %d = %d, want %d offered (counters dropped across rebalance/edit)",
			tn.Admitted(), tn.Sheds(), got, items)
	}
	if tn.Sheds() == 0 {
		t.Fatal("a 2000/s source through a 500/s tenant shed nothing; the test is not mid-overload")
	}
	if int64(sink.Count()) != tn.Admitted() {
		t.Fatalf("sink saw %d items but the tenant admitted %d (loss or duplication across the migrations)",
			sink.Count(), tn.Admitted())
	}
	row := d.Stats().Tenants[0]
	if row.Admitted != tn.Admitted() || row.Sheds != tn.Sheds() {
		t.Fatalf("stats row %d/%d diverges from the tenant ledger %d/%d after rebalance+edit",
			row.Admitted, row.Sheds, tn.Admitted(), tn.Sheds())
	}
}

// TestEditDetachBranchRacingEOS is the satellite-4 chaos regression: a
// branch is detached at a random point — often while the stream's end is
// already propagating — and the edit must neither double-close a port on
// the downstream merge, nor lose or duplicate an item on the surviving
// path, nor leak the detached branch's relay pipeline (a leak would hang
// the group's Wait).  The detached branch lives on a different shard than
// the trunk, so its drain rides a boundary relay.  Runs under -race in the
// chaos CI job.
func TestEditDetachBranchRacingEOS(t *testing.T) {
	const items = 60
	hr := rand.New(rand.NewSource(0xde7ac4))
	for iter := 0; iter < 25; iter++ {
		g := graph.New(fmt.Sprintf("detachrace%d", iter))
		g.Add(core.Comp(pipes.NewCounterSource("src", items)))
		// Clocked source: one item per tick cascades fully, so the merge's
		// arrival order is seq order and stays so across the quiesce.
		g.Add(core.Pmp(pipes.NewClockedPump("pump", 2000)))
		cpy := pipes.NewCopyTee("cpy", 2, 8, typespec.Block, typespec.Block)
		g.Split(cpy)
		g.Pipe("src", "pump", "cpy")
		// Port 0: the leaving branch, placed off-trunk so the drain relays.
		sinkd := pipes.NewCollectSink("sinkd")
		g.Add(core.Pmp(pipes.NewFreePump("pd")), graph.Place(1))
		g.Add(core.Comp(sinkd), graph.Place(1))
		g.Pipe("cpy:0", "pd", "sinkd")
		// Port 1: a route diamond into a merge — the structure a sloppy
		// detach would double-close while EOS propagates through it.
		g.Add(core.Pmp(pipes.NewFreePump("p1")))
		rt := pipes.NewRouteTee("rt", 2, 8, typespec.Block, typespec.Block,
			func(it *item.Item) int { return int((it.Seq - 1) % 2) })
		g.Split(rt)
		g.Pipe("cpy:1", "p1", "rt")
		mrg := pipes.NewMergeTee("mrg", 2, 8, typespec.Block, typespec.Block)
		g.Merge(mrg)
		for i := 0; i < 2; i++ {
			p := fmt.Sprintf("pb%d", i)
			g.Add(core.Pmp(pipes.NewFreePump(p)))
			g.Pipe(fmt.Sprintf("rt:%d", i), p, fmt.Sprintf("mrg:%d", i))
		}
		g.Add(core.Pmp(pipes.NewFreePump("pm")))
		sink := pipes.NewCollectSink("sink")
		g.Add(core.Comp(sink))
		g.Pipe("mrg", "pm", "sink")

		grp := shard.NewGroup(shard.WithShardCount(2))
		d, err := g.Deploy(graph.OnGroup(grp))
		if err != nil {
			t.Fatalf("iter %d: deploy: %v", iter, err)
		}
		grp.Start()
		d.Start()

		// Random detach point across the whole stream, biased so many
		// iterations land inside the EOS window.
		editWait(d, sink, 1+hr.Intn(items))
		if err := d.Edit(graph.DetachBranch{Split: "cpy", Port: 0}); err != nil && err != graph.ErrDeploymentDone {
			t.Fatalf("iter %d: detach: %v", iter, err)
		}
		if err := d.Wait(); err != nil {
			t.Fatalf("iter %d: wait: %v", iter, err)
		}
		if err := grp.Wait(); err != nil {
			t.Fatalf("iter %d: group wait: %v", iter, err)
		}

		got := sink.Items()
		if len(got) != items {
			t.Fatalf("iter %d: merge path delivered %d items, want %d", iter, len(got), items)
		}
		for i, it := range got {
			if it.Seq != int64(i+1) {
				t.Fatalf("iter %d: merge path item %d has seq %d", iter, i, it.Seq)
			}
		}
		for i, it := range sinkd.Items() {
			if it.Seq != int64(i+1) {
				t.Fatalf("iter %d: detached branch item %d has seq %d; want a contiguous prefix", iter, i, it.Seq)
			}
		}
	}
}
