package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
)

// The traced run records spans from the benchmark's own files only: call
// spans around each public call into a layer (Deploy, Edit, Rebalance,
// Stats, Health, Marshal/Unmarshal, WaitUntil), and per-item spans between
// benchmark-owned probe stages placed at layer boundaries inside the flow.
// All of it lives in memory allocated before the run and is written out
// when the run ends.

// epoch is the origin of every recorded timestamp (monotonic clock).
var epoch = time.Now()

// nowNs returns the monotonic time since epoch in nanoseconds.
func nowNs() int64 { return int64(time.Since(epoch)) }

// ns converts an instant to nanoseconds since epoch.
func ns(t time.Time) int64 { return int64(t.Sub(epoch)) }

// callSpan is one timed call into a layer, or a phase of the run.
type callSpan struct {
	name       string
	start, end int64
	parent     int // index of the causing span, -1 for none
}

// tracer holds a traced run's spans.  Per-item timestamps are indexed by
// flow, sequence number and probe; each slot is written once by the shard
// that runs the probe and read after the phase has joined.  A nil tracer
// records nothing, so untraced runs call the same code.
type tracer struct {
	probes []string // probe names, in path order; the first is the due time, the last the arrival
	steps  map[[2]int]string
	k      int
	cap    int64
	ts     [][]int64
	origin [][]int64

	mu      sync.Mutex
	calls   []callSpan
	dropped int
}

// maxCallSpans bounds the preallocated call-span buffer.
const maxCallSpans = 1 << 15

// newTracer preallocates per-item storage for flows × capItems items.
// steps names the span between two probes an item passes in sequence.
func newTracer(probes []string, steps map[[2]int]string, flows int, capItems int64) *tracer {
	t := &tracer{probes: probes, steps: steps, k: len(probes), cap: capItems,
		calls: make([]callSpan, 0, maxCallSpans)}
	t.ts = make([][]int64, flows)
	t.origin = make([][]int64, flows)
	for f := range t.ts {
		t.ts[f] = make([]int64, capItems*int64(t.k))
		t.origin[f] = make([]int64, capItems)
	}
	return t
}

// reset clears the per-item storage for the next traced phase.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	for f := range t.ts {
		clear(t.ts[f])
		clear(t.origin[f])
	}
}

// mark stamps probe id for item seq of flow f.
func (t *tracer) mark(f int, seq int64, id int) {
	if t == nil || seq < 1 || seq > t.cap {
		return
	}
	t.ts[f][(seq-1)*int64(t.k)+int64(id)] = nowNs()
}

// set stores a computed timestamp (due time, arrival) for item seq.
func (t *tracer) set(f int, seq int64, id int, at int64) {
	if t == nil || seq < 1 || seq > t.cap {
		return
	}
	t.ts[f][(seq-1)*int64(t.k)+int64(id)] = at
}

// setOrigin records the Origin the item carried at the sink.
func (t *tracer) setOrigin(f int, seq, origin int64) {
	if t == nil || seq < 1 || seq > t.cap {
		return
	}
	t.origin[f][seq-1] = origin
}

// begin opens a call span and returns its index (-1 when not recording).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.calls) == cap(t.calls) {
		t.dropped++
		return -1
	}
	t.calls = append(t.calls, callSpan{name: name, start: nowNs(), parent: parent})
	return len(t.calls) - 1
}

// end closes a call span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.calls[i].end = nowNs()
	t.mu.Unlock()
}

// record stores a call span timed by the caller.
func (t *tracer) record(name string, start, end int64, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.calls) == cap(t.calls) {
		t.dropped++
		return
	}
	t.calls = append(t.calls, callSpan{name: name, start: start, end: end, parent: parent})
}

// callDurations returns the durations (ms) of the closed call spans named
// name.
func (t *tracer) callDurations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, c := range t.calls {
		if c.name == name && c.end > 0 {
			out = append(out, float64(c.end-c.start)/1e6)
		}
	}
	return out
}

// itemSpan is one span of one item's path, between two probes.
type itemSpan struct {
	name       string
	start, end int64
}

// path returns the spans of item seq of flow f in path order, or nil when
// the item was not fully recorded.
func (t *tracer) path(f int, seq int64) []itemSpan {
	row := t.ts[f][(seq-1)*int64(t.k) : seq*int64(t.k)]
	if row[0] == 0 || row[t.k-1] == 0 {
		return nil
	}
	var out []itemSpan
	prev := 0
	for i := 1; i < t.k; i++ {
		if row[i] == 0 {
			continue
		}
		name, ok := t.steps[[2]int{prev, i}]
		if !ok {
			name = t.probes[prev] + ">" + t.probes[i]
		}
		out = append(out, itemSpan{name: name, start: row[prev], end: row[i]})
		prev = i
	}
	return out
}

const (
	// traceCap is the least number of items per flow a traced run records.
	traceCap = 1 << 18
	// spansWritten bounds the items per flow written to the span file.
	spansWritten = 2000
	// spanDir is where the traced run writes its span file, relative to
	// the repository root the benchmark runs from.
	spanDir = ".bench_build/spans"
)

// writeSpans closes the run's root span and writes the traced run's spans
// to spanDir.
func writeSpans(cfg config, tr *tracer, root int) error {
	tr.end(root)
	path, err := tr.write(spanDir, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s (%d call spans dropped)\n", path, tr.dropped)
	return nil
}

// write dumps the call spans and the first items' spans as tab-separated
// rows: id, parent, name, start_ns, end_ns, origin, seq.
func (t *tracer) write(dir, file string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	fh, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer fh.Close()
	w := bufio.NewWriter(fh)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\torigin\tseq")
	t.mu.Lock()
	for i, c := range t.calls {
		fmt.Fprintf(w, "c%d\t%s\t%s\t%d\t%d\t-\t-\n", i, parentID(c.parent), c.name, c.start, c.end)
	}
	t.mu.Unlock()
	for f := range t.ts {
		for seq := int64(1); seq <= t.cap && seq <= spansWritten; seq++ {
			p := t.path(f, seq)
			if p == nil {
				continue
			}
			root := fmt.Sprintf("f%d.%d", f, seq)
			origin := t.origin[f][seq-1]
			fmt.Fprintf(w, "%s\t-\titem\t%d\t%d\t%d\t%d\n", root, p[0].start, p[len(p)-1].end, origin, seq)
			for j, s := range p {
				fmt.Fprintf(w, "%s.%d\t%s\t%s\t%d\t%d\t%d\t%d\n", root, j, root, s.name, s.start, s.end, origin, seq)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, fh.Close()
}

func parentID(i int) string {
	if i < 0 {
		return "-"
	}
	return fmt.Sprintf("c%d", i)
}

// probe is the benchmark-owned function-style stage that stamps one probe
// of the item path.  It is only composed into traced runs.
type probe struct {
	core.Base
	tr   *tracer
	flow int
	id   int
}

func newProbe(name string, tr *tracer, flow, id int) *probe {
	return &probe{Base: core.Base{CompName: name}, tr: tr, flow: flow, id: id}
}

// Style implements core.Component.
func (p *probe) Style() core.Style { return core.StyleFunction }

// Convert implements core.Function.
func (p *probe) Convert(_ *core.Ctx, it *item.Item) (*item.Item, error) {
	p.tr.mark(p.flow, it.Seq, p.id)
	return it, nil
}
