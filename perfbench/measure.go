package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tailQuantile is the latency tail percentile reported as latency_tail_ms
// (recorded in BENCHMARK.json).  It is the highest percentile that repeats
// within a tenth on a 2-CPU shared host: p99 and p95 move with stolen CPU
// time (p99 ranged 1.5–7 ms across the rounds of one shard-fanout run),
// p90 does not.  Every paced run has thousands of samples beyond it.
const tailQuantile = 0.90

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

// tailQ returns the highest of p99, p95 and p90 that has at least ten
// samples beyond it, with its label; used where sample counts are small.
func tailQ(xs []float64) (float64, string) {
	for _, q := range []struct {
		q     float64
		label string
	}{{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}} {
		if float64(len(xs))*(1-q.q) >= 10 {
			return quantile(xs, q.q), q.label
		}
	}
	return quantile(xs, 0.5), "p50"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is a process resource snapshot taken around a measured phase.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

// snapshot reads process CPU time (getrusage) and allocation counters.
// ReadMemStats stops the world, so it is only called at phase boundaries.
func snapshot() usage {
	runtime.GC()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a valid pointer cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// satResult is one saturated (closed-loop) run.
type satResult struct {
	items   int64
	wall    time.Duration // start to last delivery
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

func (s satResult) itemsPerSec() float64 { return ratio(float64(s.items), s.wall.Seconds()) }
func (s satResult) cpuNsPerItem() float64 {
	return ratio(float64(s.cpu.Nanoseconds()), float64(s.items))
}
func (s satResult) allocPerItem() float64   { return ratio(float64(s.alloc), float64(s.items)) }
func (s satResult) mallocsPerItem() float64 { return ratio(float64(s.mallocs), float64(s.items)) }

// delta closes a saturated run opened with snapshot.
func delta(before, after usage, items int64, wall time.Duration) satResult {
	return satResult{items: items, wall: wall, cpu: after.cpu - before.cpu,
		alloc: after.alloc - before.alloc, mallocs: after.mallocs - before.mallocs}
}

// Untraced invocations measure in rounds; see rounds.
const (
	nRounds  = 12
	nWarmups = 4
	warmDur  = 20 * time.Millisecond
)

// roundFuncs are a workload's runs: a warm-up set-up with a short stream,
// a paced run returning its latencies (ms), and a saturated run.  Each
// also returns its set-up time.
type roundFuncs struct {
	warm      func() (time.Duration, error)
	paced     func(d time.Duration) ([]float64, time.Duration, error)
	saturated func(d time.Duration) (satResult, time.Duration, error)
}

// rounds measures the end-to-end metrics of an untraced invocation:
// warm-up set-ups, then nRounds rounds of one paced and one saturated run,
// so slow drift on the host touches both phases alike.  pacedShare and
// satShare split the invocation's measuring time.  The saturated metrics
// are the medians over the rounds and the latency metrics their lower
// quartiles, with the per-round values as raw data; setup_s is the median
// over every set-up, warm-ups included.
func rounds(cfg config, rec *record, pacedShare, satShare float64, w roundFuncs) error {
	var setups, p50, tail, ips, cpu, alloc []float64
	for i := 0; i < nWarmups; i++ {
		s, err := w.warm()
		if err != nil {
			return err
		}
		setups = append(setups, s.Seconds())
	}
	n := 0
	for i := 0; i < nRounds; i++ {
		lat, s, err := w.paced(cfg.budget(pacedShare / nRounds))
		if err != nil {
			return err
		}
		setups = append(setups, s.Seconds())
		n += len(lat)
		p50 = append(p50, quantile(lat, 0.5))
		tail = append(tail, quantile(lat, tailQuantile))
		fmt.Printf("round %d latency ms: p50=%.4g p90=%.4g p95=%.4g p99=%.4g p99.9=%.4g max=%.4g n=%d\n", i+1,
			quantile(lat, 0.5), quantile(lat, 0.90), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 0.999), quantile(lat, 1), len(lat))
		sat, s, err := w.saturated(cfg.budget(satShare / nRounds))
		if err != nil {
			return err
		}
		setups = append(setups, s.Seconds())
		ips = append(ips, sat.itemsPerSec())
		cpu = append(cpu, sat.cpuNsPerItem())
		alloc = append(alloc, sat.allocPerItem())
	}
	rec.set("setup_s", "s", median(setups), setups, fmt.Sprintf("median of %d set-ups", len(setups)))
	rec.set("items_per_s", "items/s", median(ips), ips, "saturated runs, median of rounds")
	rec.set("cpu_ns_per_item", "ns", median(cpu), cpu, "getrusage user+sys over each saturated run, median of rounds")
	rec.set("alloc_bytes_per_item", "B", median(alloc), alloc, "MemStats.TotalAlloc delta over each saturated run, median of rounds")
	rec.set("latency_p50_ms", "ms", lowQuartile(p50), p50, fmt.Sprintf("paced runs, due time to sink, lower quartile of rounds, n=%d", n))
	rec.set("latency_tail_ms", "ms", lowQuartile(tail), tail, fmt.Sprintf("p%g per paced run, lower quartile of rounds", tailQuantile*100))
	return nil
}

// lowQuartile aggregates the per-round latency percentiles.  CPU time
// stolen from a virtual machine comes in episodes of seconds to minutes
// and lengthens every wake-up while it lasts (shard-fanout's p90 rose from
// 1.05 to 1.8 ms in such an episode, tenant-churn's to 3.2 ms).  The lower
// quartile keeps rounds hit by an episode from setting the figure, while a
// change that slows every round still moves it.
func lowQuartile(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.25)
}

// watch waits for done until limit passes.  On a stall it prints the
// diagnosis and returns an error; the caller counts the run as failed.
func watch(what string, done <-chan struct{}, limit time.Duration, diagnose func() string) error {
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		fmt.Printf("WATCHDOG: %s did not finish within %v; diagnosis:\n%s", what, limit, diagnose())
		return fmt.Errorf("%s stalled (watchdog after %v)", what, limit)
	}
}

// watchdogGrace is how long past its planned end a phase may run before the
// watchdog declares it stalled.
const watchdogGrace = 10 * time.Second
