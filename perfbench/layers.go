package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"infopipes/internal/graph"
	"infopipes/internal/vclock"
)

// selfLayers are the layers the per-item self times are reported for; a
// step span belongs to the layer named before its first dot.
var selfLayers = []string{"core", "pipes", "shard", "netpipe", "work"}

// selfTimeMetrics decomposes the blocking path of the typical item.  The
// items whose traced latency lies between the 45th and 55th percentile
// form the band; each layer's self time is the mean, over the band, of the
// item's summed step spans in that layer.  The steps tile each item's
// span, so the self times add up to the band's mean latency, which is
// compared with the untraced latency_p50_ms of the same invocation.
func selfTimeMetrics(rec *record, tr *tracer, untracedP50ms float64) {
	type row struct {
		total float64
		layer map[string]float64
	}
	var rows []row
	for f := range tr.ts {
		for seq := int64(1); seq <= tr.cap; seq++ {
			p := tr.path(f, seq)
			if p == nil {
				continue
			}
			r := row{layer: make(map[string]float64, len(selfLayers))}
			for _, s := range p {
				l, _, _ := strings.Cut(s.name, ".")
				r.layer[l] += float64(s.end-s.start) / 1e3
			}
			r.total = float64(p[len(p)-1].end-p[0].start) / 1e3
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total < rows[j].total })
	lo, hi := len(rows)*45/100, len(rows)*55/100
	if hi <= lo {
		hi = min(lo+1, len(rows))
	}
	band := rows[lo:hi]
	sum := 0.0
	for _, l := range selfLayers {
		v := 0.0
		for _, r := range band {
			v += r.layer[l]
		}
		v = ratio(v, float64(len(band)))
		sum += v
		rec.set("self."+l+"_us", "us", v, nil, fmt.Sprintf("mean self time over %d items at the latency median", len(band)))
	}
	rec.set("trace.path_p50_ms", "ms", sum/1e3, nil, "sum of the layer self times along the blocking path")
	rec.set("trace.path_coverage", "ratio", ratio(sum/1e3, untracedP50ms), []float64{sum / 1e3, untracedP50ms},
		"path sum / untraced latency_p50_ms of this invocation; accepted within 0.75..1.25")
}

// pumpLagMetrics reports how late the clocked source pump ran: the probe
// directly after the pump, minus the item's due time.
func pumpLagMetrics(rec *record, tr *tracer, pumped int) {
	var lag []float64
	for f := range tr.ts {
		for seq := int64(1); seq <= tr.cap; seq++ {
			row := tr.ts[f][(seq-1)*int64(tr.k) : seq*int64(tr.k)]
			if row[0] != 0 && row[pumped] != 0 {
				lag = append(lag, float64(row[pumped]-row[0])/1e6)
			}
		}
	}
	tail, label := tailQ(lag)
	rec.set("core.pump_lag_p50_ms", "ms", quantile(lag, 0.5), nil, fmt.Sprintf("n=%d", len(lag)))
	rec.set("core.pump_lag_tail_ms", "ms", tail, nil, fmt.Sprintf("%s of n=%d", label, len(lag)))
}

// vclockMetrics times vclock.Real.WaitUntil on short deadlines (100–500
// µs) and reports how far past the deadline it returned.
func vclockMetrics(rec *record, tr *tracer, parent int, n int) {
	clk := vclock.Real{}
	over := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		deadline := time.Now().Add(time.Duration(100+100*(i%5)) * time.Microsecond)
		sp := tr.begin("vclock.WaitUntil", parent)
		clk.WaitUntil(deadline, nil)
		tr.end(sp)
		over = append(over, float64(time.Since(deadline))/1e3)
	}
	tail, label := tailQ(over)
	rec.set("vclock.wait_overshoot_p50_us", "us", quantile(over, 0.5), nil, fmt.Sprintf("n=%d", n))
	rec.set("vclock.wait_overshoot_p99_us", "us", tail, nil, fmt.Sprintf("%s of n=%d", label, n))
}

// segmentMetrics reports pump-engine counters from a deployment's Stats
// over a run of the given wall time.
func segmentMetrics(rec *record, st graph.GraphStats, wall time.Duration) {
	var items, cycles int64
	busy := 0.0
	for _, s := range st.Segments {
		items += s.Items
		cycles += s.Cycles
		busy = max(busy, ratio(float64(s.BusyNanos), float64(wall.Nanoseconds())))
	}
	rec.set("core.busy_frac_max", "ratio", busy, nil, "max over segments of BusyNanos / wall, saturated")
	rec.set("core.items_per_cycle", "items/cycle", ratio(float64(items), float64(cycles)), nil, "all pump cycles, saturated")
}

// linkMetrics reports shard-link counters and the shard busy skew.
func linkMetrics(rec *record, st graph.GraphStats, items int64) {
	var moved, drains, wakes int64
	high := 0
	for _, l := range st.Links {
		moved += l.Moved
		drains += l.Drains
		wakes += l.Wakes
		high = max(high, l.HighWater)
	}
	rec.set("shard.items_per_drain", "items", ratio(float64(moved), float64(drains)), nil, "saturated")
	rec.set("shard.wakes_per_item", "ratio", ratio(float64(wakes), float64(items)), nil, "link wake posts per delivered item, saturated")
	rec.set("shard.link_highwater", "items", float64(high), nil, "deepest link queue, saturated")
	var lo, hi int64 = -1, 0
	for _, sh := range st.Shards {
		if lo < 0 || sh.BusyNanos < lo {
			lo = sh.BusyNanos
		}
		hi = max(hi, sh.BusyNanos)
	}
	rec.set("shard.busy_skew", "ratio", ratio(float64(hi), float64(max(lo, 1))), nil, "busiest / idlest shard BusyNanos, saturated")
}

// absentLayers sets every declared per-layer metric with one of the given
// prefixes that the run did not produce to 0: the layer is not on this
// workload's path.
func absentLayers(rec *record, spec []specMetric, prefixes ...string) {
	for _, m := range spec {
		if _, ok := rec.metrics[m.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				rec.set(m.Name, m.Unit, 0, nil, "layer not on this workload's path")
				break
			}
		}
	}
}

// overheadRuns alternates traced and untraced saturated runs after the
// given untraced one, each under its own phase span, and reports the
// tracing overhead from the median items/s of each side.  It returns the
// untraced runs' items/s.
func overheadRuns(rec *record, tr *tracer, root int, first satResult, run func(traced bool, parent int) (satResult, error)) ([]float64, error) {
	phase := func(traced bool) (float64, error) {
		name := "phase.saturated.untraced"
		if traced {
			name = "phase.saturated.traced"
		}
		ph := tr.begin(name, root)
		defer tr.end(ph)
		s, err := run(traced, ph)
		return s.itemsPerSec(), err
	}
	untraced := []float64{first.itemsPerSec()}
	var traced []float64
	for i := 0; i < 2; i++ {
		if i > 0 {
			ips, err := phase(false)
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, ips)
		}
		ips, err := phase(true)
		if err != nil {
			return nil, err
		}
		traced = append(traced, ips)
	}
	u, t := median(untraced), median(traced)
	rec.set("trace.overhead_pct", "%", ratio(u-t, u)*100, append(append([]float64(nil), untraced...), traced...),
		"saturated items/s, untraced vs traced, medians (raw: untraced runs, then traced runs)")
	return untraced, nil
}
