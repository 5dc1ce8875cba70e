package vclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// GroupVirtual is a deterministic virtual clock shared by several schedulers
// — the coordinated fix for the time-travel bug of sharing a plain Virtual.
// Each scheduler gets its own Member; a member's WaitUntil registers a
// per-waiter deadline instead of advancing immediately, and the group only
// moves global time — to the *minimum* pending deadline — once every member
// is idle (blocked in WaitUntil or WaitIdle).  That turns the multi-
// scheduler case into a proper conservative distributed discrete-event
// simulation: timers across all members fire in global deadline order, and
// runs are deterministic (members waiting on the same instant wake together;
// their relative execution order at that instant is the only freedom left).
//
// A wake signal pending on an idle member vetoes the advance: the member has
// new work at the current instant (a cross-scheduler Post), so the group
// interrupts its wait instead of moving time.  The scheduler announces every
// wake through NotifyWake BEFORE signalling the wake channel, so the veto
// cannot be lost to the waiter's own select racing the group for the channel
// — the flag is visible first, and a set flag with an already-claimed signal
// simply defers the advance until the waiter has deregistered.  Members
// leave the group when their scheduler shuts down, so finished schedulers
// never hold time back.
type GroupVirtual struct {
	mu      sync.Mutex
	now     time.Time
	members []*GroupMember
}

// NewGroupVirtual returns a coordinated shared clock positioned at Epoch.
func NewGroupVirtual() *GroupVirtual {
	return &GroupVirtual{now: Epoch}
}

// NewGroupVirtualAt returns a coordinated shared clock positioned at start.
func NewGroupVirtualAt(start time.Time) *GroupVirtual {
	return &GroupVirtual{now: start}
}

// Now reports the current instant of the shared clock.
func (g *GroupVirtual) Now() time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.now
}

// Members reports how many members have joined (and not left) the group.
func (g *GroupVirtual) Members() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, m := range g.members {
		if !m.left {
			n++
		}
	}
	return n
}

// Member registers and returns a new member clock.  Pass exactly one Member
// per scheduler (uthread.WithClock); members must not be shared.  A member
// counts as busy until it first waits, so a scheduler may join a running
// group without racing its peers' time.
func (g *GroupVirtual) Member() *GroupMember {
	m := &GroupMember{g: g}
	g.mu.Lock()
	g.members = append(g.members, m)
	g.mu.Unlock()
	return m
}

// GroupMember is one scheduler's handle on a GroupVirtual.
type GroupMember struct {
	g *GroupVirtual

	// wakePending is set by NotifyWake strictly before the corresponding
	// wake-channel send, and cleared by whichever party consumes the
	// signal.  It is the group's race-free view of "work is pending for
	// this member at the current instant".
	wakePending atomic.Bool

	// All fields below are protected by g.mu.
	idle        bool
	hasDeadline bool
	deadline    time.Time
	wakeCh      <-chan struct{} // the waiter's interrupt channel while idle
	outcome     chan bool       // buffered(1); receives the wait result
	left        bool
	owner       any
}

var (
	_ Clock        = (*GroupMember)(nil)
	_ IdleWaiter   = (*GroupMember)(nil)
	_ Binder       = (*GroupMember)(nil)
	_ WakeNotifier = (*GroupMember)(nil)
)

// Now implements Clock.
func (m *GroupMember) Now() time.Time { return m.g.Now() }

// Group returns the shared clock this member belongs to.
func (m *GroupMember) Group() *GroupVirtual { return m.g }

// NotifyWake implements WakeNotifier: called by the scheduler before every
// wake-channel signal, making the pending work visible to the group's
// advance decision ahead of the racy channel.
func (m *GroupMember) NotifyWake() { m.wakePending.Store(true) }

// WaitUntil implements Clock.  It registers t as this member's deadline and
// blocks until the group advances the shared clock to (at least) t — which
// happens only when every member is idle and t is the minimum pending
// deadline — or until wake is signalled, whichever comes first.
func (m *GroupMember) WaitUntil(t time.Time, wake <-chan struct{}) bool {
	if wake != nil {
		select {
		case <-wake:
			m.wakePending.Store(false) // signal consumed before registering
			return false
		default:
		}
	}
	g := m.g
	g.mu.Lock()
	if !t.After(g.now) {
		g.mu.Unlock()
		return true
	}
	out := make(chan bool, 1)
	m.idle, m.hasDeadline, m.deadline = true, true, t
	m.outcome, m.wakeCh = out, wake
	g.tryAdvanceLocked()
	g.mu.Unlock()
	if wake == nil {
		return <-out
	}
	select {
	case ok := <-out:
		return ok
	case <-wake:
		// Deregister BEFORE clearing wakePending: between the channel
		// consume above and this lock, a set flag with an empty channel
		// tells tryAdvance to defer rather than advance past us.
		g.mu.Lock()
		decided := m.outcome != out
		if !decided {
			m.clearLocked()
		}
		m.wakePending.Store(false)
		g.mu.Unlock()
		if !decided {
			return false
		}
		// The group decided this wait concurrently; honour its outcome
		// (the consumed wake signal still took effect: the scheduler
		// re-evaluates either way).
		return <-out
	}
}

// WaitIdle implements IdleWaiter: the member is idle with no deadline of its
// own (its scheduler is blocked waiting for external input), so the peers
// may advance time past it.  Returns when wake is signalled.  wake must not
// be nil.
func (m *GroupMember) WaitIdle(wake <-chan struct{}) {
	g := m.g
	g.mu.Lock()
	if m.wakePending.Load() {
		// Work already announced: don't register as idle at all.
		g.mu.Unlock()
		select {
		case <-wake:
		default:
		}
		m.wakePending.Store(false)
		return
	}
	out := make(chan bool, 1)
	m.idle, m.hasDeadline = true, false
	m.outcome, m.wakeCh = out, wake
	g.tryAdvanceLocked()
	g.mu.Unlock()
	select {
	case <-out:
	case <-wake:
		// As in WaitUntil: deregister before clearing the flag so a
		// concurrent advance decision defers instead of passing us.
		g.mu.Lock()
		decided := m.outcome != out
		if !decided {
			m.clearLocked()
		}
		m.wakePending.Store(false)
		g.mu.Unlock()
		if decided {
			<-out
		}
	}
}

// Bind implements Binder: one scheduler per member.
func (m *GroupMember) Bind(owner any) error {
	g := m.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if m.left {
		return ErrMemberLeft
	}
	if m.owner != nil && m.owner != owner {
		return ErrSharedVirtual
	}
	m.owner = owner
	return nil
}

// Unbind implements Binder: the member leaves the group for good, so the
// remaining members' timers are no longer held back by a stopped scheduler.
func (m *GroupMember) Unbind(owner any) {
	g := m.g
	g.mu.Lock()
	if m.owner != nil && m.owner != owner {
		g.mu.Unlock()
		return
	}
	m.owner = nil
	m.leaveLocked()
	g.mu.Unlock()
}

// Leave permanently removes the member from advance coordination (idempotent).
// Scheduler shutdown does this via Unbind; it is exported for hand-driven
// members.
func (m *GroupMember) Leave() {
	m.g.mu.Lock()
	m.leaveLocked()
	m.g.mu.Unlock()
}

func (m *GroupMember) leaveLocked() {
	if m.left {
		return
	}
	m.left = true
	// Drop the member from the advance scan: short-lived members (a
	// deployment holding the clock across a broadcast) must not grow it.
	for i, other := range m.g.members {
		if other == m {
			m.g.members = append(m.g.members[:i], m.g.members[i+1:]...)
			break
		}
	}
	if m.outcome != nil {
		// A leaving member cannot stay blocked: release it as interrupted.
		out := m.outcome
		m.clearLocked()
		out <- false
	}
	m.g.tryAdvanceLocked()
}

// clearLocked resets the member's waiting state.  Caller holds g.mu.
func (m *GroupMember) clearLocked() {
	m.idle, m.hasDeadline = false, false
	m.outcome, m.wakeCh = nil, nil
}

// tryAdvanceLocked is the heart of the coordinated advance.  Caller holds
// g.mu.  It does nothing unless every live member is idle.  Then, if any
// idle member has a wake already pending, that member is released as
// interrupted instead (it has work at the current instant — advancing now
// would be the time-travel bug).  Otherwise the clock moves to the minimum
// pending deadline and every member due at that instant is released.
func (g *GroupVirtual) tryAdvanceLocked() {
	live := 0
	for _, m := range g.members {
		if m.left {
			continue
		}
		live++
		if !m.idle {
			return
		}
	}
	if live == 0 {
		return
	}
	for _, m := range g.members {
		if m.left || !m.wakePending.Load() {
			continue
		}
		if m.wakeCh == nil {
			// Uninterruptible waiter (nil wake): the hint cannot be
			// delivered; drop it so it cannot wedge the advance.
			m.wakePending.Store(false)
			continue
		}
		// Work is pending for m at the current instant (the flag is set
		// strictly before the wake-channel send).  Either the signal is
		// still in the channel — consume it and release m as interrupted
		// — or m's own select already claimed it and m will deregister as
		// soon as it takes g.mu.  In both cases: do not advance.
		select {
		case <-m.wakeCh:
			m.wakePending.Store(false)
			out := m.outcome
			m.clearLocked()
			out <- false
		default:
		}
		return
	}
	var min time.Time
	found := false
	for _, m := range g.members {
		if m.left || !m.hasDeadline {
			continue
		}
		if !found || m.deadline.Before(min) {
			min = m.deadline
			found = true
		}
	}
	if !found {
		return // all idle with no deadlines: quiescent until external input
	}
	if min.After(g.now) {
		g.now = min
	}
	for _, m := range g.members {
		if m.left || !m.hasDeadline || m.deadline.After(g.now) {
			continue
		}
		out := m.outcome
		m.clearLocked()
		out <- true
	}
}
