package graph

import (
	"errors"
	"fmt"
	"sort"

	"infopipes/internal/core"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// This file implements Deployment.Edit: live graph surgery.  The paper's
// thesis — flow structure and placement are policy, not code — extends to
// the time axis here: a subscriber joining a split, a filter spliced into an
// edge, a stage implementation swapped, or a tenant's share retuned are all
// runtime operations on a deployed graph, applied at pump-cycle boundaries
// with the same quiesce machinery Rebalance uses, and rolled back without
// touching the running flow when validation fails.
//
// Determinism contract: an edit quiesces the deployment at a pump-cycle
// boundary on the frozen virtual clock, so branches the edit does not touch
// resume exactly where they left off — their item traces are byte-identical
// to an unedited run (the randomized harness asserts this across 1-, 2- and
// 4-shard targets).

// Edit errors.
var (
	// ErrNotEditable marks structural edit ops against a target that cannot
	// apply them: remote deployments support RebindTenant only for now.
	ErrNotEditable = errors.New("graph: deployment target cannot apply structural edits (remote targets support RebindTenant only)")
	// ErrNoTenant marks a RebindTenant against a tenant-less deployment.
	ErrNoTenant = errors.New("graph: deployment has no tenant to rebind")
)

// EditOp is one live-edit operation.  Implementations: AttachBranch,
// DetachBranch, InsertStage, SwapStage, ScaleStage (scale.go), RebindTenant.
type EditOp interface {
	editOp()
}

// AttachBranch adds a new branch to a running split tee: the tee grows one
// out-port (never renumbering existing ports) and the given stages compose
// into a new sink pipeline fed from it — a subscriber joining a multicast.
// Attaching to a split whose trunk already ended yields a branch that drains
// straight to end of stream.  On a routing split the new port only receives
// items if the tee's selector already targets its index.
type AttachBranch struct {
	// Split names the split node to grow.
	Split string
	// Stages is the new branch pipeline, in flow order, ending in a sink.
	// Stage names must be unused in the graph.
	Stages []core.Stage
	// Place is the shard hint for the new branch (group targets); -1
	// inherits the trunk's shard.
	Place int
}

func (AttachBranch) editOp() {}

// DetachBranch removes a branch from a running split tee: the port is
// tombstoned (never renumbered), the trunk stops feeding it, and the leaving
// branch drains its in-flight items and ends with a clean end of stream —
// off the deployment's books but composed through to its sink.  Only pure
// sink branches detach: a branch feeding a merge, cut or nested split stays
// (detaching it would starve downstream structure shared with other flows).
// The last attached port cannot detach.
type DetachBranch struct {
	Split string
	Port  int
}

func (DetachBranch) editOp() {}

// InsertStage splices a stage into a live edge between two plain stages of
// one segment: From >> To becomes From >> Stage >> To, with the in-flight
// items upstream of the edge re-entering through the new stage.  Cut edges
// and tee ports do not accept insertion.
type InsertStage struct {
	From, To string
	// Stage is the spliced stage; its name must be unused in the graph.
	Stage core.Stage
}

func (InsertStage) editOp() {}

// SwapStage replaces a stage's implementation in place at a pump-cycle
// boundary: the node keeps its name and position, the new instance takes
// over from the next item on.  The replacement must be the same stage
// flavor (component for component, pump for pump); buffers do not swap —
// they hold in-flight items no new instance could take over.
type SwapStage struct {
	// Node names the graph node whose implementation is replaced.
	Node string
	// Stage is the replacement instance (same flavor as the current one).
	Stage core.Stage
}

func (SwapStage) editOp() {}

// RebindTenant retunes the deployment's QoS binding live: weight drives the
// scheduler credit classes (observable in grant shares within one pump
// cycle), rate/burst reload every admission gate on its next item, and
// priority applies to pipelines composed after the change.  RebindTenant
// needs no quiesce and is the only op remote deployments accept.
type RebindTenant struct {
	// Weight is the new weighted-fair share; 0 keeps the current weight.
	Weight int
	// Rate/Burst replace the admission rate limit when SetRate is true
	// (Rate 0 = unlimited).
	Rate    float64
	Burst   int
	SetRate bool
	// Prio replaces the tenant's pump priority when SetPrio is true.
	Prio    uthread.Priority
	SetPrio bool
}

func (RebindTenant) editOp() {}

// outAdder / outDetacher are the live port-surgery capabilities a split tee
// must implement to accept AttachBranch / DetachBranch (pipes.CopyTee and
// pipes.RouteTee do).
type outAdder interface{ AddOut() int }
type outDetacher interface{ DetachOut(int) error }

// Edit applies a batch of live-edit operations to the running deployment as
// one transaction: every op is validated against the current graph first —
// a rejected batch leaves the flow untouched — then the deployment quiesces
// at a pump-cycle boundary (the same detach/force-complete machinery
// Rebalance uses), the graph is re-planned, and the touched pipelines are
// recomposed while unchanged branches resume exactly where they left off.
// RebindTenant ops need no quiesce and apply immediately.
//
// Failures after the quiesce point (a composition the planner could not
// foresee) wind the deployment down exactly like a failed deploy or
// rebalance: the error is preserved through Err/Wait and no item loss is
// silently papered over.
func (d *Deployment) Edit(ops ...EditOp) error {
	var structural []EditOp
	var rebinds []RebindTenant
	for _, op := range ops {
		if rb, ok := op.(RebindTenant); ok {
			rebinds = append(rebinds, rb)
		} else {
			structural = append(structural, op)
		}
	}
	if d.remote != nil {
		if len(structural) > 0 {
			return ErrNotEditable
		}
		return d.remote.rebindTenant(rebinds)
	}
	if d.ld == nil {
		return ErrNotEditable
	}
	if len(structural) == 0 {
		return d.ld.applyRebinds(rebinds)
	}
	return d.editLocal(structural, rebinds)
}

// applyRebinds applies tenant retunes to the local deployment: the tenant's
// policy fields first (so stats and later deploys agree), then the live
// per-shard credit classes.
func (ld *localDeploy) applyRebinds(rebinds []RebindTenant) error {
	if len(rebinds) == 0 {
		return nil
	}
	if ld.tenant == nil {
		return ErrNoTenant
	}
	for _, rb := range rebinds {
		if rb.Weight > 0 {
			ld.tenant.SetWeight(rb.Weight)
		}
		if rb.SetRate {
			ld.tenant.SetRate(rb.Rate, rb.Burst)
		}
		if rb.SetPrio {
			ld.tenant.SetPriority(rb.Prio)
		}
	}
	w := ld.tenant.Weight()
	for i := 0; i < len(ld.classes); i++ { // classes are keyed 0..nShards-1
		if c := ld.classes[i]; c != nil {
			c.SetWeight(w)
		}
	}
	return nil
}

// attachRec carries one validated AttachBranch through the edit.
type attachRec struct {
	split  string
	port   int // the new port's index (outs before the attach)
	stages []core.Stage
	names  []string
}

// detachRec carries one validated DetachBranch through the edit.
type detachRec struct {
	split       string
	port        int
	segName     string
	stageNames  []string
	stageInsts  []core.Stage
	branchShard int
	pipe        *core.Pipeline // the branch's detached pipeline (post-quiesce)
	drain       *core.Pipeline // the off-plan drain pipeline, recomposed per edit
}

// editLocal runs a structural edit transaction on a local deployment.
func (d *Deployment) editLocal(structural []EditOp, rebinds []RebindTenant) error {
	ld := d.ld
	if len(rebinds) > 0 && ld.tenant == nil {
		return ErrNoTenant
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	g, plan := ld.g, ld.plan

	nShards := 1
	if ld.group != nil {
		nShards = ld.group.Shards()
	}

	// Snapshot the declaration layer and log every in-place node mutation:
	// unless the batch commits, the deferred rollback replays the undo log
	// newest first and restores the snapshot, and the running flow never
	// notices the attempt.
	nodesSnap := append([]*node(nil), g.nodes...)
	edgesSnap := append([]core.GraphEdgeInfo(nil), g.edges...)
	indexSnap := make(map[string]*node, len(g.index))
	for k, v := range g.index { //ipvet:allow maporder map-to-map copy is order-insensitive
		indexSnap[k] = v
	}
	var undo []func()
	committed := false
	defer func() {
		if committed {
			return
		}
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		g.nodes, g.edges, g.index = nodesSnap, edgesSnap, indexSnap
	}()

	// Phase 1: validate each op and apply it to the declaration layer (ops
	// see the graph as left by earlier ops in the batch).  The running
	// deployment is untouched throughout.
	var attaches []*attachRec
	var detaches []*detachRec
	var scales []*scaleRec
	newStages := make(map[string]core.Stage) // nodes gaining a (new) live instance
	fresh := func(st core.Stage) (string, error) {
		name := st.Name()
		if _, c := st.IsComponent(); !c {
			if _, b := st.IsBuffer(); !b {
				if _, p := st.IsPump(); !p {
					return "", fmt.Errorf("graph %q: edit: zero-valued stage", d.name)
				}
			}
		}
		if _, dup := g.index[name]; dup {
			return "", fmt.Errorf("graph %q: edit: stage name %q already in the graph", d.name, name)
		}
		return name, nil
	}
	for _, op := range structural {
		switch op := op.(type) {
		case AttachBranch:
			n, ok := g.index[op.Split]
			if !ok || n.kind != nSplit {
				return fmt.Errorf("graph %q: edit: AttachBranch target %q is not a split", d.name, op.Split)
			}
			if _, ok := ld.splits[op.Split].(outAdder); !ok {
				return fmt.Errorf("graph %q: edit: split %q does not support live port surgery", d.name, op.Split)
			}
			if len(op.Stages) == 0 {
				return fmt.Errorf("graph %q: edit: AttachBranch on %q with no stages", d.name, op.Split)
			}
			if op.Place < -1 || op.Place >= nShards {
				return fmt.Errorf("graph %q: edit: AttachBranch on %q placed on shard %d, target has %d",
					d.name, op.Split, op.Place, nShards)
			}
			rec := &attachRec{split: op.Split, port: n.outs, stages: op.Stages}
			prevRef, prevPort := op.Split, rec.port
			for _, st := range op.Stages {
				name, err := fresh(st)
				if err != nil {
					return err
				}
				nn := &node{name: name, kind: nStage, stage: st, place: op.Place}
				if op.Place < 0 {
					nn.place = -1
				}
				g.nodes = append(g.nodes, nn)
				g.index[name] = nn
				g.edges = append(g.edges, core.GraphEdgeInfo{
					From: prevRef, FromPort: prevPort, To: name, ToPort: core.GraphMainPort,
				})
				prevRef, prevPort = name, core.GraphMainPort
				rec.names = append(rec.names, name)
				newStages[name] = st
			}
			n.outs++
			nref := n
			undo = append(undo, func() { nref.outs-- })
			attaches = append(attaches, rec)

		case DetachBranch:
			n, ok := g.index[op.Split]
			if !ok || n.kind != nSplit {
				return fmt.Errorf("graph %q: edit: DetachBranch target %q is not a split", d.name, op.Split)
			}
			if _, ok := ld.splits[op.Split].(outDetacher); !ok {
				return fmt.Errorf("graph %q: edit: split %q does not support live port surgery", d.name, op.Split)
			}
			branches, planned := plan.SplitBranch[op.Split]
			if op.Port < 0 || op.Port >= len(branches) || !planned || branches[op.Port] < 0 {
				return fmt.Errorf("graph %q: edit: split %q has no attached branch at port %d",
					d.name, op.Split, op.Port)
			}
			seg := plan.Segments[branches[op.Port]]
			if seg.Tail.Kind != core.EndNone {
				return fmt.Errorf("graph %q: edit: branch %q of split %q feeds further graph structure; only pure sink branches detach",
					d.name, seg.Name(), op.Split)
			}
			rec := &detachRec{
				split: op.Split, port: op.Port, segName: seg.Name(),
				stageNames:  append([]string(nil), seg.Stages...),
				branchShard: ld.shardOf[branches[op.Port]],
			}
			for _, name := range rec.stageNames {
				st, ok := ld.stages[name]
				if !ok {
					return fmt.Errorf("graph %q: edit: branch stage %q has no live instance", d.name, name)
				}
				rec.stageInsts = append(rec.stageInsts, st)
			}
			nref := n
			oldDetached := nref.detachedOuts
			nref.detachedOuts = append(append([]int(nil), oldDetached...), op.Port)
			undo = append(undo, func() { nref.detachedOuts = oldDetached })
			leaving := make(map[string]bool, len(rec.stageNames))
			for _, name := range rec.stageNames {
				leaving[name] = true
			}
			kept := g.edges[:0:0]
			for _, e := range g.edges {
				if leaving[e.From] || leaving[e.To] {
					continue
				}
				kept = append(kept, e)
			}
			g.edges = kept
			keptNodes := g.nodes[:0:0]
			for _, gn := range g.nodes {
				if leaving[gn.name] {
					delete(g.index, gn.name)
					continue
				}
				keptNodes = append(keptNodes, gn)
			}
			g.nodes = keptNodes
			detaches = append(detaches, rec)

		case InsertStage:
			for _, ref := range []string{op.From, op.To} {
				if n, ok := g.index[ref]; !ok || n.kind != nStage {
					return fmt.Errorf("graph %q: edit: InsertStage endpoint %q is not a plain stage", d.name, ref)
				}
			}
			ei := -1
			for i, e := range g.edges {
				if e.From == op.From && e.To == op.To &&
					e.FromPort == core.GraphMainPort && e.ToPort == core.GraphMainPort {
					ei = i
					break
				}
			}
			if ei < 0 {
				return fmt.Errorf("graph %q: edit: no edge %s -> %s", d.name, op.From, op.To)
			}
			if g.edges[ei].Cut {
				return fmt.Errorf("graph %q: edit: edge %s -> %s is a cut; stages do not insert across explicit boundaries",
					d.name, op.From, op.To)
			}
			name, err := fresh(op.Stage)
			if err != nil {
				return err
			}
			nn := &node{name: name, kind: nStage, stage: op.Stage, place: -1}
			g.nodes = append(g.nodes, nn)
			g.index[name] = nn
			g.edges[ei] = core.GraphEdgeInfo{
				From: op.From, FromPort: core.GraphMainPort, To: name, ToPort: core.GraphMainPort,
			}
			g.edges = append(g.edges, core.GraphEdgeInfo{
				From: name, FromPort: core.GraphMainPort, To: op.To, ToPort: core.GraphMainPort,
			})
			newStages[name] = op.Stage

		case ScaleStage:
			rec, err := d.applyScaleOp(op, nShards, newStages, &undo, fresh)
			if err != nil {
				return err
			}
			scales = append(scales, rec)

		case SwapStage:
			n, ok := g.index[op.Node]
			if !ok || n.kind != nStage {
				return fmt.Errorf("graph %q: edit: SwapStage target %q is not a plain stage", d.name, op.Node)
			}
			cur, ok := ld.stages[op.Node]
			if !ok {
				return fmt.Errorf("graph %q: edit: stage %q has no live instance", d.name, op.Node)
			}
			if _, isBuf := cur.IsBuffer(); isBuf {
				return fmt.Errorf("graph %q: edit: %q is a buffer; buffers hold in-flight items and do not swap", d.name, op.Node)
			}
			if _, isBuf := op.Stage.IsBuffer(); isBuf {
				return fmt.Errorf("graph %q: edit: replacement for %q is a buffer; buffers do not swap", d.name, op.Node)
			}
			_, curPump := cur.IsPump()
			_, newPump := op.Stage.IsPump()
			if curPump != newPump {
				return fmt.Errorf("graph %q: edit: replacement for %q changes the stage flavor (pump vs component)", d.name, op.Node)
			}
			if rn := op.Stage.Name(); rn != op.Node {
				if _, dup := g.index[rn]; dup {
					return fmt.Errorf("graph %q: edit: replacement name %q collides with another node", d.name, rn)
				}
			}
			nref := n
			oldStage, oldSpec := nref.stage, nref.spec
			nref.stage, nref.spec = op.Stage, nil
			undo = append(undo, func() { nref.stage, nref.spec = oldStage, oldSpec })
			newStages[op.Node] = op.Stage

		default:
			return fmt.Errorf("graph %q: edit: unknown op %T", d.name, op)
		}
	}

	// Phase 2: re-plan the edited graph and re-check event capabilities over
	// the prospective stage set.  Still reversible.
	newPlan, err := core.PlanGraph(g.infos(), g.edges)
	if err != nil {
		return fmt.Errorf("graph %q: edit: %w", d.name, err)
	}
	all := make([]core.Stage, 0, len(g.nodes))
	for _, n := range g.nodes {
		if n.kind != nStage {
			continue
		}
		if st, ok := newStages[n.name]; ok {
			all = append(all, st)
		} else {
			all = append(all, ld.stages[n.name])
		}
	}
	if err := core.CheckEventCapabilities(all); err != nil {
		return fmt.Errorf("graph %q: edit: %w", d.name, err)
	}

	// Phase 3: remap the plan-indexed deployment state onto the new plan by
	// segment name.  Edits never rename surviving segments (an insert lands
	// strictly between a segment's first and last stage; a swap keeps the
	// node name), so a name match means "same segment, keep its shard and
	// out-spec".  New segments take their hint or inherit across their tee.
	newShard := make([]int, len(newPlan.Segments))
	newSegOut := make([]typespec.Typespec, len(newPlan.Segments))
	for i := range newShard {
		newShard[i] = -1
	}
	oldIdx := make(map[string]int, len(plan.Segments))
	for i, seg := range plan.Segments {
		oldIdx[seg.Name()] = i
	}
	for i, seg := range newPlan.Segments {
		if oi, ok := oldIdx[seg.Name()]; ok {
			newShard[i] = ld.shardOf[oi]
			newSegOut[i] = ld.segOutSpec[oi]
		}
	}
	for _, si := range newPlan.Order {
		if newShard[si] >= 0 {
			continue
		}
		seg := newPlan.Segments[si]
		if seg.Place >= 0 {
			newShard[si] = seg.Place
			continue
		}
		switch h := seg.Head; h.Kind {
		case core.EndSplitOut:
			newShard[si] = newShard[newPlan.SplitTrunk[h.Node]]
		case core.EndMergeOut:
			for _, b := range newPlan.MergeBranch[h.Node] {
				if b >= 0 && newShard[b] >= 0 {
					newShard[si] = newShard[b]
					break
				}
			}
			if newShard[si] < 0 {
				newShard[si] = 0
			}
		default:
			newShard[si] = 0
		}
	}
	pinScalePlacements(newPlan, newShard, scales)

	// Phase 4: quiesce, apply and resume through the move transaction.  The
	// runtime mutations below run while every pipeline is parked.
	return d.transact("edit", func() error {
		committed = true
		for _, a := range attaches {
			got := ld.splits[a.split].(outAdder).AddOut()
			if got != a.port {
				return fmt.Errorf("graph %q: edit: split %q port drift (declared %d, instance %d)",
					d.name, a.split, a.port, got)
			}
			ld.splitLinks[a.split] = append(ld.splitLinks[a.split], nil)
			for i, name := range a.names {
				ld.stages[name] = a.stages[i]
			}
		}
		for _, dr := range detaches {
			if err := ld.splits[dr.split].(outDetacher).DetachOut(dr.port); err != nil {
				return fmt.Errorf("graph %q: edit: %w", d.name, err)
			}
		}
		for _, sr := range scales {
			// The new tee pair goes on the deployment's books with fresh
			// (unlinked) boundary tables, exactly as run() would have sized
			// them from the plan.
			ld.splits[sr.splitName] = sr.tee
			ld.merges[sr.mergeName] = sr.om
			ld.splitLinks[sr.splitName] = make([]*shard.Link, sr.replicas)
			ld.mergeLinks[sr.mergeName] = make([]*shard.Link, sr.replicas)
			ld.mergeInSpec[sr.mergeName] = make([]typespec.Typespec, sr.replicas)
		}
		for name, st := range newStages {
			ld.stages[name] = st //ipvet:allow maporder map-to-map copy is order-insensitive
		}
		for _, dr := range detaches {
			for _, name := range dr.stageNames {
				delete(ld.stages, name)
			}
		}

		// Swap the plan.  Detached branches leave the books (redeploy keeps
		// recomposing them from ld.draining until they reach end of stream);
		// a scale renames the segments around the scaled stage (the
		// trunk and tail take new first>>last names): every segment name
		// that vanished from the plan has its counters folded into the
		// retired stats before redeploy composes the new names over the
		// same stage instances.
		newNames := make(map[string]bool, len(newPlan.Segments))
		for _, seg := range newPlan.Segments {
			newNames[seg.Name()] = true
		}
		d.mu.Lock()
		for _, dr := range detaches {
			dr.pipe = d.bySegment[dr.segName]
			delete(d.bySegment, dr.segName)
			ld.draining[dr.segName] = dr
		}
		var stale []string
		for name := range d.bySegment {
			if !newNames[name] {
				stale = append(stale, name)
			}
		}
		sort.Strings(stale)
		gone := make([]*core.Pipeline, len(stale))
		for i, name := range stale {
			gone[i] = d.bySegment[name]
			delete(d.bySegment, name)
		}
		ld.plan = newPlan
		ld.shardOf = newShard
		ld.segOutSpec = newSegOut
		d.mu.Unlock()
		for _, dr := range detaches {
			if dr.pipe != nil {
				ld.foldRetired(dr.segName, dr.pipe)
			}
		}
		for i, name := range stale {
			if gone[i] != nil {
				ld.foldRetired(name, gone[i])
			}
		}
		return ld.applyRebinds(rebinds)
	})
}

// drainDetached composes the leaving branches of DetachBranch ops: the
// tombstoned port's buffer was closed upstream, so the recomposed branch
// (and its boundary relay, if the branch was linked) drains every in-flight
// item into its sink and ends with a clean end of stream.  A branch that
// had already reached end of stream needs no drain.
//
// Drain pipelines are off-plan: every move transaction quiesces them along
// with everything else, and redeploy must recompose them here until they
// reach end of stream — or a branch still mid-drain would be stranded with
// items in flight and, for a linked branch, a boundary link that never
// closes (its wake registration would hold the receiving scheduler open
// forever).  ld.draining carries them across transactions.
func (ld *localDeploy) drainDetached() error {
	names := make([]string, 0, len(ld.draining))
	for name := range ld.draining {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, segName := range names {
		dr := ld.draining[segName]
		if dr.drain != nil {
			if dr.drain.ReachedEOS() {
				// Fully drained in an earlier generation; its pipeline was
				// dropped from the books by this redeploy, so fold its
				// counters (and its boundary carrier's) and forget it.
				ld.foldRetired(ld.g.name+"/"+dr.segName+"/detached", dr.drain)
				ld.foldDrainCarrier(dr)
				delete(ld.draining, segName)
				continue
			}
			// Quiesced mid-drain by this move: fold the superseded
			// pipeline's counters and recompose below.
			ld.foldRetired(ld.g.name+"/"+dr.segName+"/detached", dr.drain)
		} else if dr.pipe != nil && dr.pipe.ReachedEOS() {
			ld.foldDrainCarrier(dr)
			delete(ld.draining, segName)
			continue
		}
		trunk := ld.plan.SplitTrunk[dr.split]
		seed := ld.segOutSpec[trunk]
		var stages []core.Stage
		if link := ld.splitLinks[dr.split][dr.port]; link != nil {
			if err := ld.composeSplitRelay(dr.split, dr.port, dr.branchShard, seed); err != nil {
				return err
			}
			stages = append(stages, link.ReceiverStages(link.Name())...)
		} else {
			stages = append(stages, core.Comp(ld.splits[dr.split].OutPort(dr.port)))
		}
		stages = append(stages, dr.stageInsts...)
		name := ld.g.name + "/" + dr.segName + "/detached"
		p, err := ld.compose(name, dr.branchShard, stages, seed)
		if err != nil {
			return err
		}
		dr.drain = p
	}
	return nil
}

// foldDrainCarrier folds the boundary-relay carrier of a finished detached
// branch.  The tombstoned port is off-plan, so redeploy never recomposes
// its carrier; once the drain ends the carrier has ended too, and folding
// keeps its items in the retired counters instead of vanishing from stats.
func (ld *localDeploy) foldDrainCarrier(dr *detachRec) {
	link := ld.splitLinks[dr.split][dr.port]
	if link == nil {
		return
	}
	lane := link.Name()
	if rp := ld.relayPipes[lane]; rp != nil {
		ld.foldRetired(lane+"/relay", rp)
		delete(ld.relayPipes, lane)
	}
}
