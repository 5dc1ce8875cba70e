// Package control is the cluster control plane: the operator-facing layer
// that turns a set of ipnode processes into an operable cluster, built
// entirely on the extended §2.4 remote-setup protocol.
//
// Three pieces compose:
//
//   - Directory — a node registry with heartbeat health checking.  Nodes
//     are registered by control address; the directory polls each node's
//     health op on an interval, marks nodes down after consecutive missed
//     heartbeats (surfacing the wrapped remote.ErrNodeUnreachable instead
//     of letting deployments hang), and hands its clients to graph.OnNodes
//     so deployment and monitoring share connections.
//
//   - Remote telemetry — graph deployments on OnNodes targets implement
//     Stats() by fanning the stats op out to every node and folding the
//     per-pipeline pump counters into one GraphStats with node attribution
//     (see graph.GraphStats.Nodes); cmd/ipctl renders the same snapshot for
//     operators.
//
//   - Supervisor — turns the directory's down transitions into failovers
//     (Deployment.FailOver); Directory.PlaceOrphans is the placement policy
//     it shares with the elastic drain.  Load balancing across nodes needs
//     no component of its own: graph.Deployment.Balance drives Replace on
//     an OnNodes deployment exactly as it drives Rebalance across shards.
//
// RAFDA's argument — distribution policy bound and re-bound separately from
// application logic — is the through-line: the graph says nothing about
// hosts, the deployment binds hosts late, and the control plane re-binds
// them while the flow runs.
package control

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"infopipes/internal/remote"
)

// NodeHealth is one directory entry's last known state.
type NodeHealth struct {
	Name string
	Addr string
	// Healthy is false once MaxMisses consecutive heartbeats failed.
	Healthy bool
	// Misses counts consecutive failed heartbeats (0 when healthy).
	Misses int
	// LastSeen is the wall-clock time of the last successful heartbeat.
	LastSeen time.Time
	// Pipelines, Switches and Uptime mirror the node's health report.
	Pipelines int
	Switches  int64
	Uptime    time.Duration
	// Err is the last heartbeat failure (nil while healthy).
	Err error
	// Left marks a node that was drained and unregistered: the entry stays
	// (node indices are registration positions and must not shift under
	// running deployments) but the node is never probed, never counted
	// healthy, and never a placement target again.
	Left bool
}

// Directory is the cluster node registry: it owns one control client per
// registered node, heartbeats them on an interval, and reports health.
// Register every node, hand Clients() to graph.OnNodes, then Start the
// heartbeat loop.
type Directory struct {
	// MaxMisses is the number of consecutive failed heartbeats before a
	// node is marked down (default 3).
	MaxMisses int
	// ProbeRetries is how many times a single failed probe is retried —
	// reconnecting the control client and backing off in between — before it
	// counts as a missed heartbeat (default 2).  A slow accept queue or a
	// one-off TCP reset then never flaps the node, while a genuinely dead
	// node still misses on schedule: the retries happen inside one probe.
	ProbeRetries int
	// ProbeBackoff is the base pause between probe retries (default 25ms);
	// each pause is jittered up to +50% so a cluster of directories does not
	// retry in lockstep.
	ProbeBackoff time.Duration
	// OnDown, when set, is called once per transition of a node to
	// unhealthy, with the node name and the heartbeat error.
	OnDown func(name string, err error)
	// OnUp, when set, is called once per transition of a node back to
	// healthy after it was marked down.
	OnUp func(name string)

	mu      sync.Mutex
	names   []string
	addrs   map[string]string
	clients map[string]*remote.Client
	health  map[string]*NodeHealth
	stop    chan struct{}
	done    chan struct{}
}

// NewDirectory creates an empty node registry.
func NewDirectory() *Directory {
	return &Directory{
		MaxMisses:    3,
		ProbeRetries: 2,
		ProbeBackoff: 25 * time.Millisecond,
		addrs:        make(map[string]string),
		clients:      make(map[string]*remote.Client),
		health:       make(map[string]*NodeHealth),
	}
}

// Register dials a node's control address, pings it, and adds it to the
// registry under its own reported name.
func (d *Directory) Register(addr string) (string, error) {
	c, err := remote.Dial(addr)
	if err != nil {
		return "", err
	}
	name, err := c.Ping()
	if err != nil {
		c.Close()
		return "", err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.clients[name]; dup {
		c.Close()
		return "", fmt.Errorf("control: node %q already registered", name)
	}
	d.names = append(d.names, name)
	d.addrs[name] = addr
	d.clients[name] = c
	//ipvet:allow wallclock operator-facing health stamp; the control plane runs on the real network, not the virtual clock
	d.health[name] = &NodeHealth{Name: name, Addr: addr, Healthy: true, LastSeen: time.Now()}
	return name, nil
}

// Unregister retires a node from the registry: its control client closes
// and the entry is tombstoned — kept in place (so registration-order node
// indices stay aligned with running OnNodes deployments) but unhealthy,
// skipped by heartbeats, and reported with Left set.  The caller is
// responsible for having drained the node first (elastic.Cluster.Drain);
// Unregister itself moves no segments.  A left name never re-registers —
// a rejoining process must present a fresh name and takes a fresh index.
func (d *Directory) Unregister(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	entry, ok := d.health[name]
	if !ok {
		return fmt.Errorf("control: node %q not registered", name)
	}
	if entry.Left {
		return fmt.Errorf("control: node %q already left", name)
	}
	entry.Left = true
	entry.Healthy = false
	entry.Err = nil
	if c := d.clients[name]; c != nil {
		c.Close()
	}
	return nil
}

// Names lists the registered nodes in registration order.
func (d *Directory) Names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.names))
	copy(out, d.names)
	return out
}

// Client returns the control client of a registered node.
func (d *Directory) Client(name string) (*remote.Client, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.clients[name]
	return c, ok
}

// Clients returns the control clients in registration order — the argument
// list for graph.OnNodes, so deployment, telemetry and heartbeats share the
// same node ordering (GraphStats node indices line up with Names).
func (d *Directory) Clients() []*remote.Client {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*remote.Client, 0, len(d.names))
	for _, name := range d.names {
		out = append(out, d.clients[name])
	}
	return out
}

// Heartbeat polls every registered node's health op once and updates the
// registry: a reachable node refreshes its entry, an unreachable one counts
// a miss and transitions to down at MaxMisses.  Returns the number of
// healthy nodes.  Start runs this on an interval; tests and one-shot tools
// call it directly.
//
// Nodes are probed CONCURRENTLY: a dead node burns its ProbeRetries
// reconnect attempts (with jittered backoffs) without delaying the probes
// of every node after it, so down-detection latency stays one probe's
// worth no matter how many nodes are down.  Registry updates and the
// OnDown/OnUp callbacks still run sequentially, in registration order.
func (d *Directory) Heartbeat() int {
	d.mu.Lock()
	names := make([]string, 0, len(d.names))
	for _, n := range d.names {
		if d.health[n].Left {
			continue // tombstone: drained and gone, never probed again
		}
		names = append(names, n)
	}
	clients := make(map[string]*remote.Client, len(names))
	for _, n := range names {
		clients[n] = d.clients[n]
	}
	maxMisses := d.MaxMisses
	retries := d.ProbeRetries
	backoff := d.ProbeBackoff
	onDown := d.OnDown
	onUp := d.OnUp
	d.mu.Unlock()

	type probeResult struct {
		h   remote.Health
		err error
	}
	results := make([]probeResult, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, c *remote.Client) {
			defer wg.Done()
			h, err := d.probe(c, retries, backoff)
			results[i] = probeResult{h: h, err: err}
		}(i, clients[name])
	}
	wg.Wait()

	healthy := 0
	for i, name := range names {
		h, err := results[i].h, results[i].err
		d.mu.Lock()
		entry := d.health[name]
		if err == nil {
			wentUp := !entry.Healthy
			entry.Healthy = true
			entry.Misses = 0
			//ipvet:allow wallclock operator-facing health stamp for a live probe answer
			entry.LastSeen = time.Now()
			entry.Pipelines = h.Pipelines
			entry.Switches = h.Switches
			entry.Uptime = time.Duration(h.UptimeNanos)
			entry.Err = nil
			healthy++
			d.mu.Unlock()
			if wentUp && onUp != nil {
				onUp(name)
			}
			continue
		}
		entry.Misses++
		entry.Err = err
		wentDown := entry.Healthy && entry.Misses >= maxMisses
		if wentDown {
			entry.Healthy = false
		}
		d.mu.Unlock()
		if wentDown && onDown != nil {
			onDown(name, err)
		}
	}
	return healthy
}

// probe performs one health check with ProbeRetries in-probe retries: a
// failed call poisons the client connection (every later call would fail
// instantly and the node would flap down on a single hiccup), so each retry
// reconnects before asking again, after a jittered backoff.
func (d *Directory) probe(c *remote.Client, retries int, backoff time.Duration) (remote.Health, error) {
	h, err := c.Health()
	for try := 0; err != nil && try < retries; try++ {
		if backoff > 0 {
			jit := time.Duration(rand.Int63n(int64(backoff)/2 + 1))
			//ipvet:allow wallclock probe retry backoff against a real network peer
			time.Sleep(backoff + jit)
		}
		if rerr := c.Reconnect(); rerr != nil {
			err = rerr
			continue
		}
		h, err = c.Health()
	}
	return h, err
}

// NodeIndex maps a node name to its registration-order index — the node
// numbering used by graph.OnNodes deployments (SegmentPlacements, FailOver).
// Returns -1 for unknown names.
func (d *Directory) NodeIndex(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, n := range d.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Snapshot reports every node's last known health, in registration order.
func (d *Directory) Snapshot() []NodeHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeHealth, 0, len(d.names))
	for _, name := range d.names {
		out = append(out, *d.health[name])
	}
	return out
}

// Healthy reports whether a node is currently considered up.
func (d *Directory) Healthy(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.health[name]
	return ok && h.Healthy
}

// Start launches the heartbeat loop on its own goroutine.  Stop it with
// Stop (or Close).
func (d *Directory) Start(every time.Duration) {
	d.mu.Lock()
	if d.stop != nil {
		d.mu.Unlock()
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	stop, done := d.stop, d.done
	d.mu.Unlock()
	go func() {
		defer close(done)
		//ipvet:allow wallclock heartbeat ticker drives real cluster probes, not flow time
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				d.Heartbeat()
			}
		}
	}()
}

// Stop halts the heartbeat loop (the clients stay open).
func (d *Directory) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Close stops the heartbeat loop and closes every control client.
func (d *Directory) Close() {
	d.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.clients {
		c.Close()
	}
}

// PlaceOrphans spreads the segments a deployment has on node from (its
// SegmentPlacements) over the healthy, registered nodes: each orphan, in
// sorted name order, goes to the node currently hosting the fewest of the
// deployment's segments, ties to the lowest index — so two placements of
// the same cluster state agree.  It is the one re-placement policy of the
// control plane: Supervisor failover and elastic.Cluster drain both use it.
// Returns nil hints when nothing lives on from, and an error when there is
// something to place but no healthy node to take it.
func (d *Directory) PlaceOrphans(placed map[string]int, from int) (map[string]int, error) {
	load := make(map[int]int)
	for _, h := range d.Snapshot() {
		if idx := d.NodeIndex(h.Name); h.Healthy && !h.Left && idx != from {
			load[idx] = 0
		}
	}
	var orphans []string
	for seg, node := range placed {
		if node == from {
			orphans = append(orphans, seg)
		} else if _, ok := load[node]; ok {
			load[node]++
		}
	}
	if len(orphans) == 0 {
		return nil, nil
	}
	if len(load) == 0 {
		return nil, fmt.Errorf("control: no healthy node left to place %d segment(s) on", len(orphans))
	}
	// The greedy assignment mutates load as it places, so the orphan order
	// decides the placement: sort it (caught by ipvet).
	sort.Strings(orphans)
	hints := make(map[string]int, len(orphans))
	for _, seg := range orphans {
		best, bestLoad := -1, 0
		for idx, n := range load {
			if best < 0 || n < bestLoad || (n == bestLoad && idx < best) {
				best, bestLoad = idx, n
			}
		}
		hints[seg] = best
		load[best]++
	}
	return hints, nil
}
