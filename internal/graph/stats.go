package graph

import (
	"fmt"
	"strings"

	"infopipes/internal/core"
)

// SegmentStats is the activity snapshot of one deployed pipeline: a graph
// segment or an auto-inserted relay.  The counters are cumulative since
// deploy (they survive rebalances: the recomposed pipeline is a new
// instance, so the deployment folds the retired generations' counts in).
type SegmentStats struct {
	// Name is the segment's diagnostic name ("first>>last"), or the relay
	// lane name for relays.
	Name string
	// Shard is the index the pipeline currently runs on (0 on a single
	// scheduler).
	Shard int
	// Relay marks auto-inserted relay pipelines (tee-boundary lanes).
	Relay bool
	// Finished reports whether the segment's stream fully ended.
	Finished bool
	// Items, Cycles and BusyNanos aggregate the pump-loop counters; see
	// core.PipeStats.
	Items, Cycles, BusyNanos int64
}

// LinkStats is the activity snapshot of one auto-inserted shard link.
type LinkStats struct {
	Name string
	// Depth is the current queue depth; HighWater the deepest it has been.
	Depth, HighWater int
	// Moved counts items handed across; Drains batched handoffs; Wakes
	// cross-scheduler wake posts.
	Moved, Drains, Wakes int64
	// Closed reports whether the stream over the link ended.
	Closed bool
}

// TenantStats is the per-tenant QoS rollup of one deployment: admission
// outcomes from the tenant's counters, and weighted-fair scheduling state
// folded across the shards the tenant's pipelines touch.
type TenantStats struct {
	// Tenant is the tenant name; Weight its fair-share weight.
	Tenant string
	Weight int
	// Admitted counts items that passed admission control at the
	// deployment's true sources; Sheds counts items dropped (or senders
	// rejected) there instead of overflowing shared queues.
	Admitted, Sheds int64
	// CreditDebt is the tenant's virtual-time lead over the schedulers'
	// fair clocks, summed across shards (scaled units): how much service
	// the tenant has drawn ahead of its weighted share.  Zero for an idle
	// or underserved tenant.
	CreditDebt int64
	// Share is the fraction of run-token grants the tenant's threads won on
	// the shards it runs on (0..1; 0 when the schedulers are idle).
	Share float64
}

// ShardLoad aggregates a deployment's activity per shard.
type ShardLoad struct {
	// Pipelines counts the deployment's pipelines currently placed on the
	// shard (relays included, finished ones excluded).
	Pipelines int
	// Segments counts the unfinished non-relay segments currently on the
	// shard (the units a rebalance can move).
	Segments int
	// Items and BusyNanos sum the pump counters of the work that RAN on
	// this shard (cumulative since deploy; a migrated segment's history
	// stays attributed to the shard that executed it).
	Items, BusyNanos int64
}

// GraphStats is the live telemetry of one deployment, collected alloc-free
// on the hot path (atomic pump counters, lock-guarded link counters) and
// assembled on demand by Deployment.Stats.  For remote (OnNodes)
// deployments the snapshot is gathered by fanning the §2.4 stats op out to
// every node: Shard indices then name cluster nodes (see Nodes) instead of
// scheduler shards, and Deployment.Balance applies the same skew math
// across nodes.
type GraphStats struct {
	// Segments lists the graph's segments in plan order, then the relay
	// pipelines.
	Segments []SegmentStats
	// Links lists the auto-inserted links in creation order (local targets
	// only; remote lanes are TCP connections, observed via inbox counters).
	Links []LinkStats
	// Shards aggregates per shard — one entry per scheduler shard on local
	// targets, one per cluster node on remote deployments.
	Shards []ShardLoad
	// Nodes names the cluster nodes behind the Shards indices (remote
	// deployments only; empty on local targets).
	Nodes []string
	// Tenants holds the per-tenant QoS rollups: at most one row for a local
	// deployment (a deployment binds one tenant), one row per tenant name
	// seen across the nodes of a remote deployment.
	Tenants []TenantStats
}

// Skew reports the ratio between the busiest and idlest shard by item
// count (1 = balanced).  Diagnostics; the Balancer works on epoch deltas
// instead.
func (st GraphStats) Skew() float64 {
	if len(st.Shards) == 0 {
		return 1
	}
	min, max := st.Shards[0].Items, st.Shards[0].Items
	for _, sh := range st.Shards[1:] {
		if sh.Items < min {
			min = sh.Items
		}
		if sh.Items > max {
			max = sh.Items
		}
	}
	if max == 0 {
		return 1 // idle deployment: balanced by definition
	}
	return float64(max) / float64(min+1)
}

// String renders a compact one-line-per-row summary for operator tooling.
func (st GraphStats) String() string {
	var b strings.Builder
	for _, seg := range st.Segments {
		kind := "seg"
		if seg.Relay {
			kind = "rly"
		}
		state := "live"
		if seg.Finished {
			state = "done"
		}
		fmt.Fprintf(&b, "%s %-28s shard=%d items=%d busy_ms=%d %s\n",
			kind, seg.Name, seg.Shard, seg.Items, seg.BusyNanos/1e6, state)
	}
	for _, l := range st.Links {
		fmt.Fprintf(&b, "lnk %-28s depth=%d hiwater=%d moved=%d drains=%d wakes=%d\n",
			l.Name, l.Depth, l.HighWater, l.Moved, l.Drains, l.Wakes)
	}
	for i, sh := range st.Shards {
		fmt.Fprintf(&b, "shd %-28d pipelines=%d items=%d busy_ms=%d\n",
			i, sh.Pipelines, sh.Items, sh.BusyNanos/1e6)
	}
	for _, t := range st.Tenants {
		fmt.Fprintf(&b, "tnt %-28s weight=%d admitted=%d sheds=%d debt=%d share=%.2f\n",
			t.Tenant, t.Weight, t.Admitted, t.Sheds, t.CreditDebt, t.Share)
	}
	return b.String()
}

// Stats assembles the deployment's live telemetry.  Safe to call at any
// time, including while a rebalance or replace is in flight (the snapshot
// then shows the generation being replaced).  Remote deployments fan the
// stats op out to their nodes and fold the answers into the same shape,
// with node attribution in Nodes.
func (d *Deployment) Stats() GraphStats {
	var st GraphStats
	if d.remote != nil {
		return d.remote.stats()
	}
	ld := d.ld
	if ld == nil {
		return st
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	nShards := 1
	if ld.group != nil {
		nShards = ld.group.Shards()
	}
	st.Shards = make([]ShardLoad, nShards)
	for i, r := range ld.retiredByShard {
		if i < nShards {
			st.Shards[i].Items = r.items
			st.Shards[i].BusyNanos = r.busyNs
		}
	}

	// Segment rows carry the counters of every generation (retired folds);
	// shard rows attribute live counters to the shard the pipeline runs on
	// (its history is already in retiredByShard above).  A pipeline absent
	// from shardByPipe has been folded by an in-flight rebalance but not
	// yet replaced in bySegment: its counters already live in `retired`,
	// so adding its live reading again would double-count the snapshot
	// (and misattribute it to shard 0) mid-rebalance.
	add := func(name string, shard int, relay bool, p *core.Pipeline, retired retiredCounts) SegmentStats {
		var ps core.PipeStats
		if runsOn, live := ld.shardByPipe[p]; live {
			ps = p.Stats()
			if runsOn >= 0 && runsOn < nShards {
				st.Shards[runsOn].Items += ps.Items
				st.Shards[runsOn].BusyNanos += ps.BusyNanos
			}
		}
		s := SegmentStats{
			Name: name, Shard: shard, Relay: relay, Finished: p.ReachedEOS(),
			Items:     ps.Items + retired.items,
			Cycles:    ps.Cycles + retired.cycles,
			BusyNanos: ps.BusyNanos + retired.busyNs,
		}
		if shard >= 0 && shard < nShards && !s.Finished {
			st.Shards[shard].Pipelines++
			if !relay {
				st.Shards[shard].Segments++
			}
		}
		return s
	}

	seen := make(map[string]bool, len(ld.plan.Segments))
	for i, seg := range ld.plan.Segments {
		p, ok := d.bySegment[seg.Name()]
		if !ok {
			continue
		}
		seen[p.Name()] = true
		st.Segments = append(st.Segments,
			add(seg.Name(), ld.shardOf[i], false, p, ld.retired[seg.Name()]))
	}
	for _, p := range d.pipelines {
		if seen[p.Name()] {
			continue
		}
		seen[p.Name()] = true
		st.Segments = append(st.Segments,
			add(p.Name(), ld.shardByPipe[p], true, p, ld.retired[p.Name()]))
	}

	for _, l := range d.links {
		st.Links = append(st.Links, LinkStats{
			Name: l.Name(), Depth: l.Depth(), HighWater: l.HighWater(),
			Moved: l.Moved(), Drains: l.Drains(), Wakes: l.Wakes(),
			Closed: l.Closed(),
		})
	}
	if t := ld.tenant; t != nil {
		row := TenantStats{Tenant: t.Name(), Weight: t.Weight(),
			Admitted: t.Admitted(), Sheds: t.Sheds()}
		var granted, grants int64
		// Order-insensitive fold: sums over the per-shard classes.
		for sh, c := range ld.classes {
			if debt := c.VTime() - ld.schedOf(sh).FairNow(); debt > 0 {
				row.CreditDebt += debt
			}
			granted += c.Granted()
			grants += ld.schedOf(sh).Stats().Grants
		}
		if grants > 0 {
			row.Share = float64(granted) / float64(grants)
		}
		st.Tenants = append(st.Tenants, row)
	}
	return st
}
