package elastic_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/elastic"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
)

// seqTrace flattens a sink's items into a comparable seq trace.
func seqTrace(items []*item.Item) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%d ", it.Seq)
	}
	return b.String()
}

// refSeqTrace is the canonical 1..n trunk trace.
func refSeqTrace(n int64) string {
	var b strings.Builder
	for i := int64(1); i <= n; i++ {
		fmt.Fprintf(&b, "%d ", i)
	}
	return b.String()
}

// leaf builds a subscriber branch: a free pump feeding a collect sink.
func leaf(name string) (*pipes.CollectSink, []core.Stage) {
	sink := pipes.NewCollectSink(name)
	return sink, []core.Stage{core.Pmp(pipes.NewFreePump(name + "p")), core.Comp(sink)}
}

// contiguous verifies a sink holds one contiguous seq run and returns its
// bounds (0,0 when empty).
func contiguous(t *testing.T, name string, items []*item.Item) (first, last int64) {
	t.Helper()
	for i, it := range items {
		if i > 0 && it.Seq != items[i-1].Seq+1 {
			t.Fatalf("leaf %s: seq jumps %d -> %d at position %d", name, items[i-1].Seq, it.Seq, i)
		}
	}
	if len(items) == 0 {
		return 0, 0
	}
	return items[0].Seq, items[len(items)-1].Seq
}

// treeStats renders every deployment of the tree for a failure diagnosis.
func treeStats(tree *elastic.Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trunk:\n%v", tree.Trunk().Stats())
	for r := 0; r < tree.Relays(); r++ {
		fmt.Fprintf(&b, "relay %d:\n%v", r, tree.Relay(r).Stats())
	}
	return b.String()
}

// pollTree polls cond until it holds, failing with a Stats dump of the
// tree instead of hanging when it does not within the deadline.
func pollTree(t *testing.T, tree *elastic.Tree, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: timed out; stats:\n%s", what, treeStats(tree))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitTree waits for the tree and then its group to finish, failing with a
// Stats dump instead of hanging when they do not within the deadline.
func waitTree(t *testing.T, tree *elastic.Tree, grp *shard.Group) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		if err := tree.Wait(); err != nil {
			done <- fmt.Errorf("tree wait: %w", err)
			return
		}
		done <- grp.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		grp.Stop()
		t.Fatalf("tree never finished; stats:\n%s", treeStats(tree))
	}
}

// TestTreeFanOutBasic: a 2-relay tree with two pre-subscribed leaves per
// relay delivers the byte-identical trunk trace to all four leaves, and a
// leaf detached mid-stream keeps a clean contiguous prefix.
func TestTreeFanOutBasic(t *testing.T) {
	const items = 600
	grp := shard.NewGroup(shard.WithShardCount(2))
	tree, err := elastic.NewTree("fan", grp, 2,
		core.Comp(pipes.NewCounterSource("src", items)),
		core.Pmp(pipes.NewClockedPump("pump", 3000)))
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	var sinks []*pipes.CollectSink
	var subs []elastic.Sub
	for r := 0; r < 2; r++ {
		for i := 0; i < 2; i++ {
			sink, stages := leaf(fmt.Sprintf("l%d_%d", r, i))
			sub, err := tree.Subscribe(r, i%2, stages...)
			if err != nil {
				t.Fatalf("subscribe: %v", err)
			}
			sinks = append(sinks, sink)
			subs = append(subs, sub)
		}
	}
	grp.Start()
	if err := tree.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// Detach one leaf mid-stream; it must keep a contiguous prefix.
	detached := sinks[3]
	pollTree(t, tree, "detached leaf reaching items/8", func() bool { return detached.Count() >= items/8 })
	if err := tree.Unsubscribe(subs[3]); err != nil && !errors.Is(err, graph.ErrDeploymentDone) {
		t.Fatalf("unsubscribe: %v", err)
	}
	waitTree(t, tree, grp)
	want := refSeqTrace(items)
	for i, sink := range sinks[:3] {
		if got := seqTrace(sink.Items()); got != want {
			t.Fatalf("leaf %d trace diverged: %d items, want %d", i, sink.Count(), items)
		}
	}
	if first, _ := contiguous(t, "detached", detached.Items()); first != 0 && first != 1 {
		t.Fatalf("detached leaf starts at seq %d, want 1", first)
	}
}

// TestTreeChurn50SeededSurvivors is the churn arm of the determinism
// harness: 50+ seeded subscribe/unsubscribe events hit a running 3-relay
// tree mid-stream.  Every pre-subscribed survivor must come out
// byte-identical to the unchurned reference, every late-attached survivor
// must hold a contiguous suffix ending at the last item, every detached
// leaf a contiguous run — and the trunk's pump-cycle counter must advance
// across every single churn event: the trunk never pauses.
func TestTreeChurn50SeededSurvivors(t *testing.T) {
	const (
		items     = 6000
		rate      = 3000
		relays    = 3
		minEvents = 50
	)
	for _, seed := range []int64{7, 91} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			grp := shard.NewGroup(shard.WithShardCount(2))
			tree, err := elastic.NewTree("churn", grp, relays,
				core.Comp(pipes.NewCounterSource("src", items)),
				core.Pmp(pipes.NewClockedPump("pump", rate)))
			if err != nil {
				t.Fatalf("tree: %v", err)
			}

			// Survivors: two leaves per relay, watching from the start.
			var survivors []*pipes.CollectSink
			for r := 0; r < relays; r++ {
				for i := 0; i < 2; i++ {
					sink, stages := leaf(fmt.Sprintf("s%d_%d", r, i))
					if _, err := tree.Subscribe(r, i%2, stages...); err != nil {
						t.Fatalf("survivor subscribe: %v", err)
					}
					survivors = append(survivors, sink)
				}
			}
			grp.Start()
			if err := tree.Start(); err != nil {
				t.Fatalf("start: %v", err)
			}

			type churnLeaf struct {
				sink *pipes.CollectSink
				sub  elastic.Sub
			}
			var active, gone []churnLeaf
			events := 0
			for events < minEvents+5 && !tree.Trunk().Finished() {
				c0 := tree.TrunkCycles()
				var err error
				if len(active) > 0 && rng.Float64() < 0.4 {
					pick := rng.Intn(len(active))
					cl := active[pick]
					if err = tree.Unsubscribe(cl.sub); err == nil {
						active = append(active[:pick], active[pick+1:]...)
						gone = append(gone, cl)
					}
				} else {
					sink, stages := leaf(fmt.Sprintf("c%d_%d", seed, events))
					var sub elastic.Sub
					place := rng.Intn(3) - 1 // -1, 0 or 1
					if sub, err = tree.Subscribe(rng.Intn(relays), place, stages...); err == nil {
						active = append(active, churnLeaf{sink, sub})
					}
				}
				if err != nil {
					if errors.Is(err, graph.ErrDeploymentDone) {
						break // stream drained under us
					}
					t.Fatalf("churn event %d: %v", events, err)
				}
				events++
				// Liveness: the trunk must keep cycling through the edit.
				pollTree(t, tree, fmt.Sprintf("trunk pump cycling across churn event %d", events),
					func() bool { return tree.TrunkCycles() > c0 })
			}
			if events < minEvents {
				t.Fatalf("only %d churn events landed mid-stream, want >= %d", events, minEvents)
			}
			waitTree(t, tree, grp)

			want := refSeqTrace(items)
			for i, sink := range survivors {
				if got := seqTrace(sink.Items()); got != want {
					t.Fatalf("survivor %d diverged after %d churn events: %d items, want %d",
						i, events, sink.Count(), items)
				}
			}
			// Late-attached survivors: contiguous suffix, through the end.
			for _, cl := range active {
				_, last := contiguous(t, "late", cl.sink.Items())
				if cl.sink.Count() > 0 && last != items {
					t.Fatalf("late survivor ends at seq %d, want %d", last, items)
				}
			}
			// Detached leaves: whatever they got is one contiguous run.
			for _, cl := range gone {
				contiguous(t, "gone", cl.sink.Items())
			}
			t.Logf("seed %d: %d churn events (%d leaves attached, %d detached)",
				seed, events, len(active)+len(gone), len(gone))
		})
	}
}
