package graph

import (
	"fmt"

	"infopipes/internal/core"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
)

// This file implements replica scale-out: ScaleStage rewrites one plain
// stage S of a running deployment into
//
//	... >> S.split ──┬─ S    >> S#0/p ─┬─>> S.merge >> ...
//	                 ├─ S#1  >> S#1/p ─┤
//	                 └─ S#n-1>> S#n-1/p┘
//
// behind an auto-inserted elastic route-split (pipes.ElasticTee — pure
// (Seq-1) mod active selector) and a seq-ordered fold-in
// (pipes.OrderedMerge), so segment identity becomes (stage, replica-index):
// each replica is its own branch segment ("S#i>>S#i/p"), placeable on its
// own shard, visible in GraphStats under its own name.  Because the merge
// reconstructs the exact trunk order, every trace downstream of the merge
// is byte-identical whatever the replica count or interleaving — scaling is
// invisible, which is what lets the Autoscaler retune it from load policy.
//
// After the edit, Deployment.SetReplicas(S, n) retunes the ACTIVE replica
// count with no quiesce at all: the tee's selector spreads new items over
// 1..n and idle replicas simply drain.  Scale-out beyond the declared
// replica count needs another ScaleStage... no — it needs nothing: declare
// the maximum once, start folded (SetReplicas(S, 1)), and let policy move
// the knob.

// ScaleStage is the live-edit operation that turns stage Node into Replicas
// parallel replicas behind an elastic split and an ordered merge.  The
// stage must be a plain 1:1 component interior to its segment (a stage
// between two plain stages, not a source, sink, pump or buffer), and its
// segment must be single-section (exactly one pump).  Replica 0 is the
// original live instance — (stage, replica-index) identity keeps the
// stage's accumulated state on replica 0; replicas 1..n-1 are built by
// Build, or cloned from the node's catalog spec when it is spec-backed.
type ScaleStage struct {
	// Node names the stage to scale.
	Node string
	// Replicas is the declared replica count (>= 2); the live knob
	// SetReplicas moves within 1..Replicas.
	Replicas int
	// Places optionally pins replica i to shard Places[i] (-1 inherits the
	// trunk's shard); nil places every replica on the trunk's shard.
	Places []int
	// Build makes replica instance i (1..Replicas-1) for live-declared
	// nodes; unused (may be nil) when the node is spec-backed.
	Build func(i int) (core.Stage, error)
}

func (ScaleStage) editOp() {}

// scaleRec carries one validated ScaleStage through the edit transaction.
type scaleRec struct {
	node      string
	splitName string
	mergeName string
	replicas  int
	places    []int
	oldShard  int
	tee       *pipes.ElasticTee
	om        *pipes.OrderedMerge
}

// applyScaleOp validates one ScaleStage against the current declaration and
// rewrites the declaration layer (nodes, edges, the new tees); the caller's
// deferred rollback undoes everything unless the batch commits.  New plain stages (replicas and
// their pumps) are registered in newStages for the event-capability check
// and the stage-table update at commit.
func (d *Deployment) applyScaleOp(op ScaleStage, nShards int,
	newStages map[string]core.Stage, undo *[]func(),
	fresh func(core.Stage) (string, error)) (*scaleRec, error) {
	ld := d.ld
	g, plan := ld.g, ld.plan

	if op.Replicas < 2 {
		return nil, fmt.Errorf("graph %q: edit: ScaleStage %q to %d replicas; want at least 2",
			d.name, op.Node, op.Replicas)
	}
	if len(op.Places) != 0 && len(op.Places) != op.Replicas {
		return nil, fmt.Errorf("graph %q: edit: ScaleStage %q carries %d placement hints for %d replicas",
			d.name, op.Node, len(op.Places), op.Replicas)
	}
	for i, p := range op.Places {
		if p < -1 || p >= nShards {
			return nil, fmt.Errorf("graph %q: edit: ScaleStage %q replica %d placed on shard %d, target has %d",
				d.name, op.Node, i, p, nShards)
		}
	}
	n, ok := g.index[op.Node]
	if !ok || n.kind != nStage {
		return nil, fmt.Errorf("graph %q: edit: ScaleStage target %q is not a plain stage", d.name, op.Node)
	}
	cur, ok := ld.stages[op.Node]
	if !ok {
		return nil, fmt.Errorf("graph %q: edit: stage %q has no live instance", d.name, op.Node)
	}
	if _, isComp := cur.IsComponent(); !isComp {
		return nil, fmt.Errorf("graph %q: edit: ScaleStage %q: only plain components scale (pumps drive one pipeline, buffers hold its items)",
			d.name, op.Node)
	}
	splitName, mergeName := op.Node+".split", op.Node+".merge"
	for _, nm := range []string{splitName, mergeName} {
		if _, dup := g.index[nm]; dup {
			return nil, fmt.Errorf("graph %q: edit: %q already exists (stage %q scaled twice?)", d.name, nm, op.Node)
		}
	}

	// The stage must be interior: exactly one plain non-cut in-edge and one
	// plain non-cut out-edge, both to plain stages of the same segment.
	inIdx, outIdx := -1, -1
	for i, e := range g.edges {
		if e.To == op.Node && e.ToPort == core.GraphMainPort {
			inIdx = i
		}
		if e.From == op.Node && e.FromPort == core.GraphMainPort {
			outIdx = i
		}
	}
	if inIdx < 0 || outIdx < 0 {
		return nil, fmt.Errorf("graph %q: edit: ScaleStage %q is not interior (sources and sinks do not scale)",
			d.name, op.Node)
	}
	in, out := g.edges[inIdx], g.edges[outIdx]
	if in.Cut || out.Cut {
		return nil, fmt.Errorf("graph %q: edit: ScaleStage %q sits on a cut boundary; scale a stage interior to one segment",
			d.name, op.Node)
	}
	for _, peer := range []string{in.From, out.To} {
		if pn, ok := g.index[peer]; !ok || pn.kind != nStage {
			return nil, fmt.Errorf("graph %q: edit: ScaleStage %q neighbors tee %q; scale a stage between plain stages",
				d.name, op.Node, peer)
		}
	}
	if in.FromPort != core.GraphMainPort || out.ToPort != core.GraphMainPort {
		return nil, fmt.Errorf("graph %q: edit: ScaleStage %q neighbors a tee port; scale a stage between plain stages",
			d.name, op.Node)
	}

	// Locate the hosting segment and its single pump: the pump stays on
	// whichever side of the split it already was, and the other side gains a
	// fresh free pump (S/feed drives the trunk when the pump is downstream
	// of S, S/fold drives the merged tail when it is upstream).
	si, nodeIdx := -1, -1
	for i, seg := range plan.Segments {
		for j, s := range seg.Stages {
			if s == op.Node {
				si, nodeIdx = i, j
				break
			}
		}
	}
	if si < 0 {
		return nil, fmt.Errorf("graph %q: edit: ScaleStage %q not in any planned segment", d.name, op.Node)
	}
	seg := plan.Segments[si]
	pumpIdx, pumps := -1, 0
	for j, s := range seg.Stages {
		if _, isPump := ld.stages[s].IsPump(); isPump {
			pumpIdx, pumps = j, pumps+1
		}
	}
	if pumps != 1 {
		return nil, fmt.Errorf("graph %q: edit: ScaleStage %q: segment %q has %d pumps, want exactly 1 (multi-section segments do not scale)",
			d.name, op.Node, seg.Name(), pumps)
	}
	oldShard := ld.shardOf[si]

	// Build the replica instances: replica 0 is the original (its state
	// stays), 1..n-1 come from Build or the node's catalog spec.
	repNames := make([]string, op.Replicas)
	repNames[0] = op.Node
	for i := 1; i < op.Replicas; i++ {
		rname := fmt.Sprintf("%s#%d", op.Node, i)
		var st core.Stage
		var err error
		switch {
		case op.Build != nil:
			st, err = op.Build(i)
		case n.spec != nil:
			f, ok := g.catalog[n.spec.Kind]
			if !ok {
				return nil, fmt.Errorf("graph %q: edit: ScaleStage %q: spec kind %q not in catalog", d.name, op.Node, n.spec.Kind)
			}
			st, err = f(rname, n.spec.Args, n.spec.Params)
		default:
			return nil, fmt.Errorf("graph %q: edit: ScaleStage %q is live-declared; supply Build to make replicas", d.name, op.Node)
		}
		if err != nil {
			return nil, fmt.Errorf("graph %q: edit: ScaleStage %q replica %d: %w", d.name, op.Node, i, err)
		}
		name, err := fresh(st)
		if err != nil {
			return nil, err
		}
		if _, isComp := st.IsComponent(); !isComp {
			return nil, fmt.Errorf("graph %q: edit: ScaleStage %q replica %q is not a plain component", d.name, op.Node, name)
		}
		repNames[i] = name
		g.nodes = append(g.nodes, &node{name: name, kind: nStage, stage: st, place: -1})
		g.index[name] = g.nodes[len(g.nodes)-1]
		newStages[name] = st
	}

	// The tees: an elastic splitter and its paired seq-ordered merge.  Both
	// are declared unhinted — a rebalance may have moved the segment off its
	// declared shard, so placement is pinned per segment after the re-plan
	// (see the scale fix-ups in editLocal's Phase 3), not through hints.
	tee := pipes.NewElasticTee(splitName, op.Replicas, 8, typespec.Block, typespec.Block)
	om := pipes.NewOrderedMerge(mergeName, op.Replicas, 8, typespec.Block, typespec.Block, tee.BaseRef())
	g.nodes = append(g.nodes, &node{name: splitName, kind: nSplit, split: tee, outs: op.Replicas, place: -1})
	g.index[splitName] = g.nodes[len(g.nodes)-1]
	g.nodes = append(g.nodes, &node{name: mergeName, kind: nMerge, merge: om, ins: op.Replicas, place: -1})
	g.index[mergeName] = g.nodes[len(g.nodes)-1]

	// The scaled node must not carry a stale placement hint into its branch
	// segment: branch shards are pinned explicitly after the re-plan.
	oldPlace := n.place
	nref := n
	n.place = -1
	*undo = append(*undo, func() { nref.place = oldPlace })

	// Rewrite the edges: drop From->S and S->To, route the flow through the
	// tees, and give every replica its own branch pump.
	kept := g.edges[:0:0]
	for i, e := range g.edges {
		if i == inIdx || i == outIdx {
			continue
		}
		kept = append(kept, e)
	}
	g.edges = kept
	addPump := func(name string) error {
		st := core.Pmp(pipes.NewFreePump(name))
		if _, err := fresh(st); err != nil {
			return err
		}
		g.nodes = append(g.nodes, &node{name: name, kind: nStage, stage: st, place: -1})
		g.index[name] = g.nodes[len(g.nodes)-1]
		newStages[name] = st
		return nil
	}
	edge := func(from string, fromPort int, to string, toPort int) {
		g.edges = append(g.edges, core.GraphEdgeInfo{From: from, FromPort: fromPort, To: to, ToPort: toPort})
	}
	trunkTail := in.From
	if pumpIdx > nodeIdx {
		// The segment's pump sits downstream of S and stays there; the trunk
		// needs its own driver.
		feed := op.Node + "/feed"
		if err := addPump(feed); err != nil {
			return nil, err
		}
		edge(trunkTail, core.GraphMainPort, feed, core.GraphMainPort)
		trunkTail = feed
	}
	edge(trunkTail, core.GraphMainPort, splitName, core.GraphMainPort)
	for i := 0; i < op.Replicas; i++ {
		pname := fmt.Sprintf("%s#%d/p", op.Node, i)
		if err := addPump(pname); err != nil {
			return nil, err
		}
		edge(splitName, i, repNames[i], core.GraphMainPort)
		edge(repNames[i], core.GraphMainPort, pname, core.GraphMainPort)
		edge(pname, core.GraphMainPort, mergeName, i)
	}
	if pumpIdx < nodeIdx {
		// The segment's pump sits upstream of S and stays with the trunk;
		// the merged tail needs its own driver.
		fold := op.Node + "/fold"
		if err := addPump(fold); err != nil {
			return nil, err
		}
		edge(mergeName, core.GraphMainPort, fold, core.GraphMainPort)
		edge(fold, core.GraphMainPort, out.To, core.GraphMainPort)
	} else {
		edge(mergeName, core.GraphMainPort, out.To, core.GraphMainPort)
	}

	return &scaleRec{
		node: op.Node, splitName: splitName, mergeName: mergeName,
		replicas: op.Replicas, places: op.Places, oldShard: oldShard,
		tee: tee, om: om,
	}, nil
}

// pinScalePlacements overrides the generic segment-name remap for the
// segments a ScaleStage created or renamed: the trunk and the merged tail
// stay on the scaled segment's shard, and each replica branch takes its
// Places hint (or inherits the trunk's shard).  Runs after the generic
// Phase-3 remap in editLocal.
func pinScalePlacements(newPlan *core.GraphPlan, newShard []int, scales []*scaleRec) {
	for _, sr := range scales {
		if trunk, ok := newPlan.SplitTrunk[sr.splitName]; ok {
			newShard[trunk] = sr.oldShard
		}
		if down, ok := newPlan.MergeDown[sr.mergeName]; ok {
			newShard[down] = sr.oldShard
		}
		for i, b := range newPlan.SplitBranch[sr.splitName] {
			if b < 0 {
				continue
			}
			sh := sr.oldShard
			if i < len(sr.places) && sr.places[i] >= 0 {
				sh = sr.places[i]
			}
			newShard[b] = sh
		}
	}
}

// SetReplicas retunes how many replicas of a scaled stage receive new items,
// clamped to 1..declared — the no-quiesce knob behind the Autoscaler.  The
// stage must have been scaled by a ScaleStage edit (or declared as an
// elastic split).  Returns the clamped active count.
func (d *Deployment) SetReplicas(stage string, replicas int) (int, error) {
	tee, err := d.elasticOf(stage)
	if err != nil {
		return 0, err
	}
	return tee.SetActive(replicas), nil
}

// Replicas reports a scaled stage's active and declared replica counts.
func (d *Deployment) Replicas(stage string) (active, declared int, err error) {
	tee, err := d.elasticOf(stage)
	if err != nil {
		return 0, 0, err
	}
	return tee.Active(), tee.Outs(), nil
}

// elasticOf resolves a stage name (or its split's name) to the live
// ElasticTee behind it.  Local deployments only — replica scale-out is a
// structural edit, and those are local-target for now.
func (d *Deployment) elasticOf(stage string) (*pipes.ElasticTee, error) {
	if d.ld == nil {
		return nil, ErrNotEditable
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	sp, ok := d.ld.splits[stage+".split"]
	if !ok {
		sp, ok = d.ld.splits[stage]
	}
	if !ok {
		return nil, fmt.Errorf("graph %q: %q is not a scaled stage", d.name, stage)
	}
	tee, ok := sp.(*pipes.ElasticTee)
	if !ok {
		return nil, fmt.Errorf("graph %q: split %q is not elastic", d.name, stage)
	}
	return tee, nil
}
