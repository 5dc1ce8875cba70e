package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/remote"
)

// ErrNotReplaceable marks a segment the cluster re-placement path cannot
// move: its stream position lives in the segment (a source), a shared tee
// instance lives in it (split trunks, merge downstreams), one of its
// boundaries is wired directly instead of over a redialable cluster lane
// (deploy with WithClusterLanes), or it buffers items internally while its
// inbound lane self-acks (the ack watermark cannot prove end-of-segment
// consumption, so a replay would lose the buffered items).  Merged flows
// are movable like any other: their lanes journal on the per-origin
// (origin, seq) pair (see item.Item.Origin).
var ErrNotReplaceable = errors.New("graph: segment cannot be re-placed")

// Replace moves segments of a live OnNodes deployment between cluster nodes
// without losing an in-flight item — the cluster form of Rebalance, driven
// by the extended §2.4 protocol.  hints maps segment names (see
// SegmentPlacements) to node indices.  There is no drain phase: the durable
// lanes carry the in-flight items with the segment (see move).  Boundary
// lanes, once TCP, stay TCP (deploy with WithClusterLanes so every cut edge
// is one).  Segments that hold stream position or shared tee state refuse
// with ErrNotReplaceable; check with Replaceable before proposing a move.
// Concurrent Replace calls are serialized with each other.
func (d *Deployment) Replace(hints map[string]int) error {
	return d.replace(-1, hints)
}

// FailOver moves every segment hosted on a dead node onto the hinted
// survivors — Replace's disaster path, driven by Directory.OnDown.  The
// dead node is never contacted: its lane state died with it (peers hold
// parked, redialable lane halves), and the upstream durable journals carry
// every item the chain below the dead segments had not consumed.  hints
// maps segment names to destination node indices and must cover every
// segment on the dead node; a relay pipeline (split/merge anchor wiring) on
// the dead node is not recoverable and fails the call.  On error the failed
// segment's placement reverts to the dead node and the error returns
// without latching: the caller may retry with different survivors, and
// only it knows when to give up (Fail).
func (d *Deployment) FailOver(dead int, hints map[string]int) error {
	if dead < 0 {
		return fmt.Errorf("graph %q: failover of node %d", d.name, dead)
	}
	return d.replace(dead, hints)
}

// replace validates a batch of re-placements and runs each through move:
// the named segments of a live Replace (dead < 0), or every segment hosted
// on node dead.  Segments move downstream-first (plan segments are indexed
// in topological order): when a co-placed chain dies together, the
// upstream segment's recompose dials its downstream lane — which must
// already be re-bound on the survivor, or the dial hits the dead node's
// stale address.
func (d *Deployment) replace(dead int, hints map[string]int) error {
	if d.remote == nil {
		return ErrNotRebalancable
	}
	d.rbMu.Lock()
	defer d.rbMu.Unlock()
	r, rd := d.remote, d.remote.rd
	if !rd.target.ClusterLanes {
		return fmt.Errorf("%w: deployment lanes are not redialable (deploy with WithClusterLanes)",
			ErrNotReplaceable)
	}
	live := dead < 0
	var moves []int
	if live {
		for name := range hints {
			si, err := rd.segIndex(name)
			if err != nil {
				return err
			}
			moves = append(moves, si)
		}
		sort.Slice(moves, func(i, j int) bool { return moves[i] > moves[j] })
	} else {
		if dead >= len(r.clients) {
			return fmt.Errorf("graph %q: failover of node %d, cluster has %d", d.name, dead, len(r.clients))
		}
		for _, p := range r.pipeList() {
			if p.client == dead && p.seg < 0 {
				return fmt.Errorf("graph %q: failover: relay %q is anchored on dead node %d (its tee cannot move)",
					d.name, p.name, dead)
			}
		}
		r.mu.Lock()
		for si := len(rd.plan.Segments) - 1; si >= 0; si-- {
			if rd.nodeOf[si] == dead {
				moves = append(moves, si)
			}
		}
		r.mu.Unlock()
	}
	for _, si := range moves {
		name := rd.plan.Segments[si].Name()
		dest, ok := hints[name]
		if !ok {
			return fmt.Errorf("graph %q: failover: no destination for segment %q on dead node %d",
				d.name, name, dead)
		}
		if dest < 0 || dest >= len(r.clients) || dest == dead {
			return fmt.Errorf("graph %q: segment %q hinted to unusable node %d (cluster has %d)",
				d.name, name, dest, len(r.clients))
		}
		if err := rd.replaceable(si, live); err != nil {
			return err
		}
	}
	for _, si := range moves {
		if dest := hints[rd.plan.Segments[si].Name()]; dest != rd.nodeOf[si] {
			if err := r.move(si, dest, live); err != nil {
				return err
			}
		}
	}
	return nil
}

// Replaceable reports whether the named segment of a remote deployment can
// be moved by Replace, and why not otherwise.
func (d *Deployment) Replaceable(segment string) error {
	if d.remote == nil {
		return ErrNotRebalancable
	}
	si, err := d.remote.rd.segIndex(segment)
	if err != nil {
		return err
	}
	return d.remote.rd.replaceable(si, true)
}

func (rd *remoteDeploy) segIndex(name string) (int, error) {
	for i, seg := range rd.plan.Segments {
		if seg.Name() == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("graph %q: replace hint for unknown segment %q", rd.g.name, name)
}

// replaceable checks the movability contract of one segment: every boundary
// must be a redialable TCP lane (or absent, for sinks), the inbound lane
// must be durable (the upstream journal is what carries the in-flight items
// through the move), a self-acking inbound lane requires a single-pump
// segment (so the ack anchor proves consumption — see netpipe.popDurable),
// and neither stream position (sources) nor merge tees may live inside the
// segment.  Split trunks are movable on the LIVE path only (live=true —
// manual Replace): the trunk detaches, the tee's out-port buffers and relay
// journals drain on the still-running old node, and the tee is rebuilt from
// its spec on the destination (see move and drainTee).  A dead node cannot
// drain, so failover keeps refusing trunk hosts.
func (rd *remoteDeploy) replaceable(si int, live bool) error {
	seg := rd.plan.Segments[si]
	own := rd.nodeOf[si]
	in, _ := rd.inLane(si)
	switch h := seg.Head; h.Kind {
	case core.EndNone:
		return fmt.Errorf("%w: %q is a source segment (its stream position cannot move)",
			ErrNotReplaceable, seg.Name())
	case core.EndMergeOut:
		return fmt.Errorf("%w: %q hosts the merge tee %q", ErrNotReplaceable, seg.Name(), h.Node)
	case core.EndSplitOut:
		if in == "" {
			return fmt.Errorf("%w: %q is wired directly to split %q (no lane to redial)",
				ErrNotReplaceable, seg.Name(), h.Node)
		}
	case core.EndCut:
		if in == "" {
			return fmt.Errorf("%w: %q's inbound cut is a same-node link (deploy with WithClusterLanes)",
				ErrNotReplaceable, seg.Name())
		}
	}
	if !rd.target.ClusterLanes {
		return fmt.Errorf("%w: %q's inbound lane is not durable (deploy with WithClusterLanes)",
			ErrNotReplaceable, seg.Name())
	}
	// A self-acking inbound listener (no durable outbound lane to chain to)
	// anchors its acks one pop behind the pipeline's FIRST pump, which only
	// proves consumption when that pump is the segment's ONLY pump.  A
	// buffered segment runs extra pump-driven sections: the anchor would
	// acknowledge items still queued inside the segment, the upstream
	// journal would trim them, and a replay after the move would lose them
	// — refuse the move instead.
	if rd.chainLane(si) == "" && rd.segSections[si] > 1 {
		return fmt.Errorf("%w: %q buffers items internally (its self-acking inbound lane cannot prove end-of-segment consumption)",
			ErrNotReplaceable, seg.Name())
	}
	switch t := seg.Tail; t.Kind {
	case core.EndSplitTrunk:
		if !live {
			return fmt.Errorf("%w: %q hosts the split tee %q (its relay journals died with the node)",
				ErrNotReplaceable, seg.Name(), t.Node)
		}
		// A live trunk move drains the tee and rebuilds it from its spec on
		// the destination.  That replays the upstream journal's unacked tail
		// through a FRESH tee, so the routing must be a pure function of the
		// item (round-robin state would re-route the replayed overlap onto a
		// different branch — a duplicate one branch's dedup cannot absorb).
		n := rd.g.index[t.Node]
		if n.spec.Kind == "route" {
			if sel := n.spec.Params["sel"]; sel == "" || sel == "rr" {
				return fmt.Errorf("%w: %q hosts split %q with stateful round-robin routing (a rebuilt tee would re-route the replayed overlap)",
					ErrNotReplaceable, seg.Name(), t.Node)
			}
		}
		// Every branch must attach over a relay lane: a branch composed on
		// the trunk's own node pulls the shared tee instance directly, and
		// that reference cannot follow the tee to another node.
		for _, bi := range rd.splitBranches(t.Node) {
			if lane, _ := rd.inLane(bi); lane == "" {
				return fmt.Errorf("%w: branch %q is wired directly to split %q (move the branch off node %d first)",
					ErrNotReplaceable, rd.plan.Segments[bi].Name(), t.Node, own)
			}
		}
	case core.EndMergeIn:
		if rd.outLane(si) == "" {
			return fmt.Errorf("%w: %q is wired directly to merge %q (no lane to redial)",
				ErrNotReplaceable, seg.Name(), t.Node)
		}
	case core.EndCut:
		if rd.outLane(si) == "" {
			return fmt.Errorf("%w: %q's outbound cut is a same-node link (deploy with WithClusterLanes)",
				ErrNotReplaceable, seg.Name())
		}
	}
	return nil
}

// splitBranches lists the segments headed by split name's out-ports, in
// plan order.
func (rd *remoteDeploy) splitBranches(name string) []int {
	var out []int
	for si, seg := range rd.plan.Segments {
		if h := seg.Head; h.Kind == core.EndSplitOut && h.Node == name {
			out = append(out, si)
		}
	}
	return out
}

// move re-places one validated segment onto dest — the one bracket every
// re-placement runs through.  oldUp says whether the segment's current node
// is still reachable.
//
//  1. Retire: the pipelines' last counters fold into the retired stats.
//  2. Vacate (live node only; a dead node's sockets died with it): detach
//     the pipeline at a pump-cycle boundary — whatever was in it or its
//     inbound lane is abandoned, the upstream journal still holds every
//     item the chain below has not consumed — then drop the old node's
//     lane halves: the segment owns its inbound LISTENER and its outbound
//     SENDERS; its neighbours' halves of the same lanes (possibly on the
//     same node) survive, and the senders close WITHOUT an EOS frame, so
//     the downstream resumable listeners park instead of ending the stream.
//     A split trunk also drains its tee first (see drainTee) and drops the
//     tee instance.
//  3. Recompose on dest: the same segment spec, the same pipeline name,
//     fresh inbound listeners, outbound dials at the stationary listeners'
//     unchanged addresses, the deploy-time seed (composeSegment).  A trunk's
//     relays compose first: their factories rebuild the tee from its spec.
//  4. Redial the stationary upstream sender at the new listener — its
//     journal replays the unacked tail — and start dest.  The downstream
//     dedup watermarks drop whatever the replay re-delivers, so the move is
//     exactly-once at the boundary below the moved segment.
//
// A live move that fails after its detach latches the error and stops the
// deployment (the segment is gone from both nodes).  A failover move only
// returns the error with the placement reverted: the caller retries
// another survivor.
func (r *remoteDeployment) move(si, dest int, oldUp bool) error {
	rd := r.rd
	seg := rd.plan.Segments[si]
	old := rd.nodeOf[si]
	pipeName := r.name + "/" + seg.Name()
	in, sender := rd.inLane(si)
	names := []string{pipeName}
	senders := []string{rd.outLane(si)}
	var ports []int // a split trunk's relay ports, which move with it
	if t := seg.Tail; t.Kind == core.EndSplitTrunk {
		senders = nil
		for _, bi := range rd.splitBranches(t.Node) {
			port := rd.plan.Segments[bi].Head.Port
			lane := rd.laneName(t.Node, port)
			ports = append(ports, port)
			senders = append(senders, lane)
			names = append(names, lane+"/relay")
		}
	}

	r.mu.Lock()
	r.replacing = true
	r.repGen++
	started := r.started
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.replacing = false
		r.repGen++
		r.mu.Unlock()
	}()
	fail := func(err error) error {
		if oldUp {
			return r.latch(seg.Name(), err)
		}
		return err
	}

	r.retire(old, names, oldUp)
	if oldUp {
		// Detach BEFORE dropping the inbound listener: dropping first would
		// close the lane inbox under the running pipeline, which reads that
		// as end of stream and propagates a spurious EOS frame downstream.
		if err := r.clients[old].Detach(pipeName); err != nil {
			return fmt.Errorf("graph %q: replace %q: detach: %w", r.name, seg.Name(), err)
		}
		if len(ports) > 0 {
			if err := r.drainTee(si, senders, names[1:], started); err != nil {
				return err
			}
		}
		drops := [][2]string{{in, "listener"}}
		for _, lane := range senders {
			drops = append(drops, [2]string{lane, "sender"})
		}
		for _, dr := range drops {
			if dr[0] == "" {
				continue
			}
			if _, err := r.clients[old].Control("drop",
				map[string]string{"lane": dr[0], "side": dr[1]}); err != nil {
				return fail(fmt.Errorf("graph %q: replace %q: drop %q: %w", r.name, seg.Name(), dr[0], err))
			}
		}
		if len(ports) > 0 {
			if _, err := r.clients[old].Control("droptee",
				map[string]string{"tee": rd.g.name + "/" + seg.Tail.Node}); err != nil {
				return fail(fmt.Errorf("graph %q: replace %q: droptee: %w", r.name, seg.Name(), err))
			}
		}
	}

	r.mu.Lock()
	rd.nodeOf[si] = dest // under r.mu: SegmentPlacements reads it there
	r.mu.Unlock()
	err := func() error {
		for i, port := range ports {
			rd.touched[dest] = true
			if err := rd.client(dest).ComposeTenantSegment(names[i+1], rd.splitRelay(seg.Tail.Node, port),
				rd.segOutSpec[si], rd.tenantSpec(), false); err != nil {
				return fmt.Errorf("graph %q: node %d: recompose relay %q: %w", r.name, dest, names[i+1], err)
			}
		}
		return rd.composeSegment(si, true)
	}()
	if err != nil {
		r.mu.Lock()
		rd.nodeOf[si] = old
		r.mu.Unlock()
		return fail(err)
	}
	r.mu.Lock()
	for i := range r.pipes {
		for _, name := range names {
			if r.pipes[i].name == name {
				r.pipes[i].client = dest
			}
		}
	}
	r.mu.Unlock()

	if in != "" && (oldUp || sender != old) { // a dead co-placed sender died with the node
		if _, err := r.clients[sender].Control("redial",
			map[string]string{"lane": in, "addr": rd.laneAddr[in]}); err != nil {
			return fail(fmt.Errorf("graph %q: replace %q: redial %q: %w", r.name, seg.Name(), in, err))
		}
	}
	if started {
		_ = r.clients[dest].SendEvent(events.Event{Type: events.Start, Origin: r.name})
	}
	return nil
}

// drainTee empties a detached split trunk's tee on its (live) node before
// the trunk moves — the tee instance cannot cross nodes, but its SPEC can.
// The relay pipelines keep running and pump the tee's out-port buffers
// into the branch lanes; poll the drained probe until every buffer is
// empty and every relay lane is connected and quiescent — at that point
// every item that entered the tee is on a branch listener's side of the
// wire (consumed or in its inbox).  The relay journals' delivered-but-
// unacked tails are discarded with the relays; the listeners' dedup
// watermarks make any replayed overlap harmless (see nodeState.drained).
// Then the relays detach at a pump-cycle boundary and emptiness is
// re-verified: a straggler caught between a buffer pop and a journal append
// by the LAST probe would have been journaled by now and show up here.
//
// A drain that never completes (a wedged or disconnected branch) re-attaches
// the trunk where it was — its listener, tee and relays are all still in
// place — and reports the failure with the deployment still running.
func (r *remoteDeployment) drainTee(si int, lanes, relays []string, started bool) error {
	rd := r.rd
	seg := rd.plan.Segments[si]
	node := rd.nodeOf[si]
	tee := seg.Tail.Node
	params := map[string]string{"tee": rd.g.name + "/" + tee, "lanes": strings.Join(lanes, ",")}
	drained := false
	deadline := time.Now().Add(10 * time.Second) //ipvet:allow wallclock drain deadline against a live remote node; its relays run on their own clock
	for time.Now().Before(deadline) {            //ipvet:allow wallclock drain deadline check
		v, err := r.clients[node].Control("drained", params)
		if err != nil {
			return r.latch(seg.Name(), fmt.Errorf("graph %q: replace %q: drain probe: %w", r.name, seg.Name(), err))
		}
		if v == "1" {
			drained = true
			break
		}
	}
	if !drained {
		err := fmt.Errorf("graph %q: replace %q: split %q never drained (a branch is not consuming)",
			r.name, seg.Name(), tee)
		if rerr := rd.composeSegment(si, true); rerr != nil {
			return r.latch(seg.Name(), err)
		}
		if started {
			_ = r.clients[node].SendEvent(events.Event{Type: events.Start, Origin: r.name})
		}
		return err
	}
	for _, name := range relays {
		if err := r.clients[node].Detach(name); err != nil {
			return r.latch(seg.Name(), fmt.Errorf("graph %q: replace %q: detach relay %q: %w", r.name, seg.Name(), name, err))
		}
	}
	if v, err := r.clients[node].Control("drained", params); err != nil || v != "1" {
		return r.latch(seg.Name(), fmt.Errorf("graph %q: replace %q: split %q not empty after relay detach (err=%v)",
			r.name, seg.Name(), tee, err))
	}
	return nil
}

// retire folds the last counters of pipelines about to be replaced into the
// retired stats, so Stats stays cumulative across re-placements: a
// reachable node is asked for a final snapshot, a dead one contributes its
// last cached rows.  Best-effort — the recomposed generation reprocesses
// the replayed tail, so a small overlap is inherent and only affects
// telemetry, never the stream.
func (r *remoteDeployment) retire(node int, names []string, up bool) {
	rows := make(map[string]remote.PipeStat)
	if up {
		if nodeRows, err := r.clients[node].Stats(r.name + "/"); err == nil {
			for _, row := range nodeRows {
				rows[row.Name] = row
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !up {
		rows = r.lastRows[node]
	}
	if r.retiredByNode == nil {
		r.retiredByNode = make([]retiredCounts, len(r.clients))
	}
	for _, name := range names {
		row := rows[name]
		ret := r.retired[name]
		ret.items += row.Items
		ret.cycles += row.Cycles
		ret.busyNs += row.BusyNanos
		r.retired[name] = ret
		r.retiredByNode[node].items += row.Items
		r.retiredByNode[node].busyNs += row.BusyNanos
	}
}

// latch records a failed live move as the deployment's terminal error and
// stops the graph: the moved segment is gone from both nodes.
func (r *remoteDeployment) latch(seg string, err error) error {
	r.mu.Lock()
	if r.startErr == nil {
		r.startErr = fmt.Errorf("graph %q: replace %q failed, deployment stopped: %w", r.name, seg, err)
	}
	r.mu.Unlock()
	r.stop()
	return err
}

// Supervise marks the deployment as owned by a failure supervisor: Wait and
// Err treat an unreachable node as pending (the supervisor either heals the
// deployment by failing its segments over, or latches a terminal error via
// Fail) instead of failing fast.
func (d *Deployment) Supervise() {
	if d.remote == nil {
		return
	}
	d.remote.mu.Lock()
	d.remote.supervised = true
	d.remote.mu.Unlock()
}

// Fail latches a terminal deployment error and stops the graph: the
// supervisor calls it when a dead node's segments cannot be placed on any
// healthy survivor.  Wait and Err return the latched error.
func (d *Deployment) Fail(err error) {
	r := d.remote
	if r == nil || err == nil {
		return
	}
	r.mu.Lock()
	if r.startErr == nil {
		r.startErr = err
	}
	r.mu.Unlock()
	r.stop()
}

// tailPipe reports whether a pipe hosts a terminal segment — one whose
// tail is a true sink (core.EndNone), the end of the information flow.
// Relay pipelines (seg < 0) feed tees mid-graph and are never terminal.
func (r *remoteDeployment) tailPipe(p remotePipe) bool {
	return p.seg >= 0 && r.rd.plan.Segments[p.seg].Tail.Kind == core.EndNone
}

// Finished reports whether the deployment's stream has provably delivered
// its end of stream: every reachable pipeline is done AND every terminal
// (true-sink) segment is among the reachable done pipes.  EOS observed at
// the sinks is the only proof the stream ended — an unreachable tail may
// still have journaled in-flight items above it that its dead node never
// consumed, so it reports unfinished and the failover (or its terminal
// Fail) decides.  Unreachable NON-terminal pipes don't count against it:
// if the flow's EOS made it through the reachable tails, the stream is
// over and a failover would only rebuild dead weight.
func (d *Deployment) Finished() bool {
	r := d.remote
	if r == nil {
		return false
	}
	tails := 0
	for _, p := range r.pipeList() {
		v, err := r.clients[p.client].Lookup("done:" + p.name)
		if err != nil {
			if r.tailPipe(p) {
				return false
			}
			continue
		}
		if v != "true" {
			return false
		}
		if r.tailPipe(p) {
			tails++
		}
	}
	// With the whole deployment unreachable (no tail answered), nothing
	// proves the stream ended — report unfinished.
	return tails > 0
}
