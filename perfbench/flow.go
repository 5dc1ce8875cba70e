package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/typespec"
)

// tableSize is the length of every workload's seeded input table; item seq
// carries input (seq-1) mod tableSize.
const tableSize = 1 << 16

// digest renders a short hex digest of a workload's input stream, so two
// runs with the same seed can be shown to share inputs.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// source is the benchmark's seeded producer.  A paced run bounds it by item
// count; a saturated run by a deadline, after which it ends the stream so
// every delivered item can still be checked.
type source struct {
	core.Base
	limit    int64 // items; 0 = bounded by deadline
	deadline int64 // ns since epoch; 0 = bounded by limit
	gen      func(seq int64, now time.Time) *item.Item
	seq      atomic.Int64
}

// newSource builds a source of limit items; with limit 0 the caller sets
// deadline before the run starts.
func newSource(name string, limit int64, gen func(int64, time.Time) *item.Item) *source {
	return &source{Base: core.Base{CompName: name}, limit: limit, gen: gen}
}

// Style implements core.Component.
func (s *source) Style() core.Style { return core.StyleProducer }

// TransformSpec implements core.Component: the source originates the flow.
func (s *source) TransformSpec(typespec.Typespec) typespec.Typespec {
	return typespec.New("perfbench/item")
}

// Pull implements core.Producer.
func (s *source) Pull(ctx *core.Ctx) (*item.Item, error) {
	seq := s.seq.Load()
	if s.limit > 0 && seq >= s.limit {
		return nil, core.ErrEOS
	}
	if s.deadline > 0 && seq&15 == 0 && nowNs() >= s.deadline {
		return nil, core.ErrEOS
	}
	s.seq.Store(seq + 1)
	return s.gen(seq+1, ctx.Now()), nil
}

// produced reports how many items the source offered.
func (s *source) produced() int64 { return s.seq.Load() }

// anchoredPump is a clocked pump that remembers its first deadline, so the
// benchmark can compute each item's due time as anchor + (seq-1)/rate: the
// pump's catch-up schedule makes that the instant item seq was due to
// leave the source.
type anchoredPump struct {
	*pipes.TimedPump
	period time.Duration
	anchor atomic.Int64
}

func newAnchoredPump(name string, rate float64) *anchoredPump {
	return &anchoredPump{TimedPump: pipes.NewClockedPump(name, rate),
		period: time.Duration(float64(time.Second) / rate)}
}

// Next implements core.Pump.
func (p *anchoredPump) Next(now time.Time, cycle int64) time.Time {
	d := p.TimedPump.Next(now, cycle)
	p.anchor.CompareAndSwap(0, ns(d))
	return d
}

// due returns when item seq was due, in ns since epoch.
func (p *anchoredPump) due(seq int64) int64 {
	return p.anchor.Load() + (seq-1)*int64(p.period)
}

// sink is the benchmark's checking sink.  It checks per-origin order (a
// merge interleaves branches, so only the order within one origin is
// defined), counts items the workload's verify rejects, and records
// arrival times.  Exactly-once follows from per-origin order plus the
// delivered count matching what the source offered.
type sink struct {
	core.Base
	flow     int
	tr       *tracer
	arrival  int // probe id of the arrival stamp
	verify   func(it *item.Item) bool
	arrivals []int64 // per seq; nil when the run does not measure latency
	seqs     []int64 // delivered sequence numbers in order, when non-nil

	lastSeq []int64 // per origin
	count   atomic.Int64
	bad     atomic.Int64
	last    atomic.Int64 // ns since epoch of the latest delivery
	done    chan struct{}
}

func newSink(name string, flow int, tr *tracer, arrival int, verify func(*item.Item) bool, arrivals []int64) *sink {
	return &sink{Base: core.Base{CompName: name}, flow: flow, tr: tr, arrival: arrival,
		verify: verify, arrivals: arrivals, done: make(chan struct{})}
}

// Style implements core.Component.
func (s *sink) Style() core.Style { return core.StyleConsumer }

// Push implements core.Consumer.
func (s *sink) Push(_ *core.Ctx, it *item.Item) error {
	now := nowNs()
	o := int(it.Origin)
	for len(s.lastSeq) <= o {
		s.lastSeq = append(s.lastSeq, 0)
	}
	if it.Seq <= s.lastSeq[o] || (s.verify != nil && !s.verify(it)) {
		s.bad.Add(1)
	}
	if it.Seq > s.lastSeq[o] {
		s.lastSeq[o] = it.Seq
	}
	if s.arrivals != nil && it.Seq >= 1 && it.Seq <= int64(len(s.arrivals)) {
		s.arrivals[it.Seq-1] = now
	}
	if s.seqs != nil {
		s.seqs = append(s.seqs, it.Seq)
	}
	s.tr.set(s.flow, it.Seq, s.arrival, now)
	s.tr.setOrigin(s.flow, it.Seq, it.Origin)
	s.last.Store(now)
	s.count.Add(1)
	it.Recycle()
	return nil
}

// HandleEOS implements core.EOSSink.
func (s *sink) HandleEOS(*core.Ctx) { close(s.done) }

// latencies returns arrival - due (ms) for every delivered item.
func latencies(arrivals []int64, due func(seq int64) int64) []float64 {
	out := make([]float64, 0, len(arrivals))
	for i, a := range arrivals {
		if a != 0 {
			out = append(out, float64(a-due(int64(i+1)))/1e6)
		}
	}
	return out
}

// spin is the seeded per-item work: rounds of xorshift over x.
func spin(x uint64, rounds uint32) uint64 {
	for i := uint32(0); i < rounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
