package graph

import (
	"errors"
	"fmt"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/vclock"
)

// Rebalancing errors.
var (
	// ErrNotRebalancable marks a deployment whose target has no placement
	// dimension to adjust (single scheduler), or a cluster verb (Replace,
	// FailOver) called on a local deployment.
	ErrNotRebalancable = errors.New("graph: deployment target cannot rebalance (deploy OnGroup)")
	// ErrNotMigratable marks a deployment with pipelines that run
	// coroutine threads: migration quiesces at pump-cycle boundaries, which
	// covers direct placements only.
	ErrNotMigratable = errors.New("graph: pipeline runs coroutine threads; migration supports direct placements only")
	// ErrDeploymentDone marks a Rebalance after the deployment finished.
	ErrDeploymentDone = errors.New("graph: deployment already finished")
)

// Rebalance moves segments of a live deployment without losing a single
// in-flight item: the operator (or a BalancePolicy) hands in new placement
// hints — segment name (see SegmentPlacements) to shard index — and the
// deployment quiesces, re-places and resumes through the same move
// transaction as Edit (see transact): boundary links are reused and
// retargeted so their queued items ride along, boundaries that newly cross
// shards get links, and segments whose stream already ended are kept as-is.
//
// Segments not named in hints keep their current shard.  Under the group's
// shared virtual clock the migration is invisible in the item trace: the
// clock freezes while the deployment is quiesced and the anchored pump
// schedules resume exactly where they left off — the randomized determinism
// harness asserts byte-identical traces with and without a mid-stream
// rebalance.
//
// Concurrent Rebalance calls are serialized; a Stop that races a Rebalance
// is applied when the rebalance completes.  On an OnNodes deployment the
// hints are node indices and Rebalance is Replace; a single-scheduler
// deployment has no placement to adjust (ErrNotRebalancable).
func (d *Deployment) Rebalance(hints map[string]int) error {
	if d.remote != nil {
		return d.Replace(hints)
	}
	if d.ld == nil || d.ld.group == nil {
		return ErrNotRebalancable
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	ld := d.ld

	// Validate the hints against the plan and the group before touching
	// anything.
	segIdx := make(map[string]int, len(ld.plan.Segments))
	for i, seg := range ld.plan.Segments {
		segIdx[seg.Name()] = i
	}
	newShard := append([]int(nil), ld.shardOf...)
	for name, sh := range hints {
		i, ok := segIdx[name]
		if !ok {
			return fmt.Errorf("graph %q: rebalance hint for unknown segment %q", d.name, name)
		}
		if sh < 0 || sh >= ld.group.Shards() {
			return fmt.Errorf("graph %q: segment %q hinted to shard %d, group has %d",
				d.name, name, sh, ld.group.Shards())
		}
		newShard[i] = sh
	}
	return d.transact("rebalance", func() error {
		d.mu.Lock()
		ld.shardOf = newShard // under d.mu: SegmentPlacements/Stats read it there
		d.mu.Unlock()
		return nil
	})
}

// transact is the one move transaction of a local deployment — Rebalance
// and Edit differ only in the apply step.  With d.rbMu held it
//
//  1. refuses a finished deployment, a failed pipeline (it has already
//     dropped its in-flight item and broadcast a stop; moving it would erase
//     the evidence) and pipelines running coroutine threads,
//  2. quiesces: freezes the virtual clock, detaches every pipeline of the
//     current generation at a pump-cycle boundary (an interrupted blocked
//     push force-completes into its destination queue, which survives the
//     move; nothing is mistaken for end-of-stream) and waits for its
//     threads — the shard pins taken at deploy keep every scheduler alive
//     through the window,
//  3. aborts if a pipeline FAILED on the way down: the old generation stays
//     registered, so Err/Wait keep reporting the failure,
//  4. runs apply on the parked deployment and recomposes the new
//     generation (redeploy), then seals it and re-broadcasts the Start and
//     any Stop that raced the move.
//
// apply is the commit point: once it runs, a failure winds the deployment
// down like a failed deploy (the error is latched in Err/Wait) — a stream
// that silently lost structure never resumes.
func (d *Deployment) transact(verb string, apply func() error) error {
	d.mu.Lock()
	if d.finished {
		d.mu.Unlock()
		return ErrDeploymentDone
	}
	for _, p := range d.pipelines {
		if perr := p.Err(); perr != nil {
			d.mu.Unlock()
			return fmt.Errorf("graph %q: %s refused, pipeline %s failed: %w", d.name, verb, p.Name(), perr)
		}
		if !p.ReachedEOS() && hasCoroutines(p) {
			d.mu.Unlock()
			return fmt.Errorf("%w (%s)", ErrNotMigratable, p.Name())
		}
	}
	d.rebalancing = true
	d.gen++
	old := append([]*core.Pipeline(nil), d.pipelines...)
	d.mu.Unlock()

	defer d.holdClock()()
	for _, p := range old {
		p.Detach()
	}
	for _, p := range old {
		<-p.Done()
	}
	var aborted, err error
	for _, p := range old {
		if perr := p.Err(); perr != nil {
			aborted = fmt.Errorf("graph %q: %s aborted, pipeline %s failed: %w", d.name, verb, p.Name(), perr)
			break
		}
	}
	if aborted == nil {
		if err = apply(); err == nil {
			err = d.ld.redeploy()
		}
	}

	d.mu.Lock()
	d.rebalancing = false
	started, stopReq := d.started, d.stopReq
	if err != nil && d.deployErr == nil {
		d.deployErr = fmt.Errorf("graph %q: %s: %w", d.name, verb, err)
	}
	d.mu.Unlock()
	d.seal()
	switch {
	case aborted != nil:
		d.abandon()
		return aborted
	case err != nil:
		d.abandon()
		return d.Err()
	}
	if started {
		d.broadcast(events.Start)
	}
	if stopReq {
		d.broadcast(events.Stop)
	}
	return nil
}

// holdClock freezes a shared virtual clock until the returned release
// runs: a fresh group member counts as busy, and a busy member vetoes every
// advance.  A quiesce, its recomposition and the Start broadcast that
// resumes the flow thus land at one virtual instant.  Without the hold a
// broadcast posted from outside the schedulers reaches some pumps before
// others, the clock ticks in between, and the late pumps' items merge ticks
// late — a trace divergence.  A no-op off the coordinated group clock.
func (d *Deployment) holdClock() func() {
	if d.ld == nil {
		return func() {}
	}
	gm, ok := d.ld.schedOf(0).Clock().(*vclock.GroupMember)
	if !ok {
		return func() {}
	}
	return gm.Group().Member().Leave
}

// abandon winds a dead deployment down after a failed rebalance: stop
// whatever is composed AND close every auto-inserted link — a link whose
// receiver was never recomposed has no component left to close it, and an
// open link holds its receiving scheduler's external-source reference
// forever (the group could never drain) — the same rollback run() performs
// on a failed deploy.
func (d *Deployment) abandon() {
	d.broadcast(events.Stop)
	for _, l := range d.Links() {
		l.Close()
	}
}

// hasCoroutines reports whether any component placement of the pipeline
// needs a coroutine thread (migration quiesces pump threads at cycle
// boundaries; coroutine rendezvous state cannot be carried across yet).
func hasCoroutines(p *core.Pipeline) bool {
	for _, sect := range p.Plan().Sections {
		for _, pl := range sect.Upstream {
			if !pl.Direct {
				return true
			}
		}
		for _, pl := range sect.Downstream {
			if !pl.Direct {
				return true
			}
		}
	}
	return false
}

// BalancePolicy parameterizes the automatic rebalancer.
type BalancePolicy struct {
	// SkewThreshold triggers a move when the busiest shard carried more
	// than SkewThreshold times the items of the idlest shard during the
	// last epoch (default 2.0).
	SkewThreshold float64
	// MinItems suppresses moves while fewer than MinItems items flowed in
	// the epoch — start-up and drain-down phases carry no signal
	// (default 1024).
	MinItems int64
	// Movable, when set, restricts which segments the balancer may propose
	// moving.  Nil means every segment on a local deployment and, on an
	// OnNodes deployment, the segments Deployment.Replaceable accepts
	// (sources, tee hosts and directly wired boundaries cannot move).
	Movable func(segment string) bool
}

// Balancer derives rebalance hints from the item-count deltas between
// successive Stats epochs: when the per-shard load skew exceeds the policy
// threshold, it proposes moving the busiest migratable segment of the
// hottest shard to the coolest shard.  Drive it from operator code:
//
//	b := graph.NewBalancer(graph.BalancePolicy{})
//	for range time.Tick(epoch) {
//	    if moved, err := d.Balance(b); err != nil { ... }
//	}
type Balancer struct {
	policy    BalancePolicy
	prevSeg   map[string]int64
	prevShard []int64
}

// NewBalancer creates a balancer; zero policy fields take the defaults.
func NewBalancer(p BalancePolicy) *Balancer {
	if p.SkewThreshold <= 1 {
		p.SkewThreshold = 2.0
	}
	if p.MinItems <= 0 {
		p.MinItems = 1024
	}
	return &Balancer{policy: p, prevSeg: make(map[string]int64)}
}

// Plan inspects one stats epoch and proposes rebalance hints, reporting
// whether a move is warranted.  It updates the balancer's epoch baseline
// either way.
func (b *Balancer) Plan(st GraphStats) (map[string]int, bool) {
	return b.plan(st, b.policy.Movable)
}

func (b *Balancer) plan(st GraphStats, movable func(string) bool) (map[string]int, bool) {
	if len(st.Shards) < 2 {
		return nil, false
	}
	if b.prevShard == nil {
		b.prevShard = make([]int64, len(st.Shards))
	}
	shardDelta := make([]int64, len(st.Shards))
	var total int64
	for i, sh := range st.Shards {
		shardDelta[i] = sh.Items - b.prevShard[i]
		total += shardDelta[i]
		b.prevShard[i] = sh.Items
	}
	segDelta := make(map[string]int64, len(st.Segments))
	for _, seg := range st.Segments {
		segDelta[seg.Name] = seg.Items - b.prevSeg[seg.Name]
		b.prevSeg[seg.Name] = seg.Items
	}
	if total < b.policy.MinItems {
		return nil, false
	}
	hot, cool := 0, 0
	for i, dlt := range shardDelta {
		if dlt > shardDelta[hot] {
			hot = i
		}
		if dlt < shardDelta[cool] ||
			(dlt == shardDelta[cool] && st.Shards[i].Segments < st.Shards[cool].Segments) {
			cool = i
		}
	}
	if hot == cool ||
		float64(shardDelta[hot]) < b.policy.SkewThreshold*float64(shardDelta[cool]+1) {
		return nil, false
	}
	// A shard hosting a single movable segment is as spread as it gets:
	// relocating its only load would merely rename the hot shard (and
	// ping-pong forever against an idle peer).
	if st.Shards[hot].Segments < 2 {
		return nil, false
	}
	// Busiest still-flowing segment on the hottest shard.  Moving the
	// single hottest segment per epoch keeps the controller stable.
	best, bestDelta := "", int64(0)
	for _, seg := range st.Segments {
		if seg.Shard != hot || seg.Finished || seg.Relay {
			continue
		}
		if movable != nil && !movable(seg.Name) {
			continue
		}
		if dlt := segDelta[seg.Name]; dlt > bestDelta {
			best, bestDelta = seg.Name, dlt
		}
	}
	if best == "" {
		return nil, false
	}
	return map[string]int{best: cool}, true
}

// Balance runs one epoch of the balancer against the deployment: snapshot
// stats, plan, and rebalance if warranted — across shards on a group
// deployment, across nodes (Replace) on an OnNodes one.  Reports whether a
// move was made.
func (d *Deployment) Balance(b *Balancer) (bool, error) {
	movable := b.policy.Movable
	if movable == nil && d.remote != nil {
		movable = func(seg string) bool { return d.Replaceable(seg) == nil }
	}
	hints, ok := b.plan(d.Stats(), movable)
	if !ok {
		return false, nil
	}
	if err := d.Rebalance(hints); err != nil {
		return false, err
	}
	return true, nil
}
