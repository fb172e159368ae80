// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, insertion sequence). Simulated processes (Proc) are coroutines
// (iter.Pull): an event resumes a process, which runs until it yields back
// to the event loop, so exactly one of them executes at any moment and
// simulations are fully deterministic and free of data races without
// locks. One event loop executes every event; concurrency lives only
// across independent runs (each with its own Engine), never inside one.
package sim

import (
	"fmt"
	"math"
)

// Monitor observes engine progress. It exists for runtime auditing
// (internal/audit): the engine calls Step after executing each event, so a
// monitor can cross-check clock monotonicity independently of the queue
// ordering that is supposed to guarantee it. A wake run in place (see
// Proc.WaitUntil) counts as an event and is reported at the same point of
// the stream as a queued one. Implementations must not mutate simulation
// state.
type Monitor interface {
	// Step reports that the clock advanced from prev to now and one event
	// ran at now.
	Step(prev, now int64)
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now int64
	// prev is the clock before the running event, reported to the monitor
	// with now when that event ends (see Step and wakeInPlace).
	prev    int64
	seq     uint64
	events  eventQueue
	procs   []*Proc
	monitor Monitor
	// deadline is RunUntil's bound while it runs, and noDeadline
	// otherwise: a process wakes in place only under RunUntil.
	deadline int64
}

// noDeadline marks an engine not inside RunUntil. Clocks start at zero, so
// no wait time is at or below it.
const noDeadline = math.MinInt64

// NewEngine returns an engine with the clock at zero, scheduling through
// the default calendar queue.
func NewEngine() *Engine { return NewEngineQueue(QueueCalendar) }

// NewEngineQueue returns an engine using the given event-queue
// implementation. All queue kinds pop in identical (time, sequence) order —
// pinned by differential tests — so the choice affects simulator speed
// only, never results. QueueHeap exists for those tests and benchmarks.
func NewEngineQueue(kind QueueKind) *Engine {
	return &Engine{events: newEventQueue(kind), deadline: noDeadline}
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() int64 { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error that indicates a model bug, so it panics.
//
//simlint:hotpath event-queue hold path: every scheduled event is pushed through here
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %d < now %d", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d int64, fn func()) { e.At(e.now+d, fn) }

// SetMonitor installs (or, with nil, removes) the engine's step monitor.
// The unmonitored path pays one nil check per event.
func (e *Engine) SetMonitor(m Monitor) { e.monitor = m }

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed.
//
//simlint:hotpath engine inner loop: every simulated event passes through here
func (e *Engine) Step() bool {
	ev, ok := e.events.pop()
	if !ok {
		return false
	}
	e.prev, e.now = e.now, ev.at
	ev.fn()
	if e.monitor != nil {
		e.monitor.Step(e.prev, e.now)
	}
	return true
}

// wakeInPlace advances the clock to t for the running process, in place of
// queueing its wake, when that wake would be the next event RunUntil
// executes: t is within the deadline and nothing is pending at or before t
// (events already queued at t would precede the push). It reports whether
// it did. The monitor's view stays exact: the event that is ending
// reports its step here, just where the event path reports it once the
// process has yielded, and Step reports the wake's own step when the
// process next yields.
func (e *Engine) wakeInPlace(t int64) bool {
	if t > e.deadline {
		return false
	}
	if next, pending := e.events.peekTime(); pending && next <= t {
		return false
	}
	if e.monitor != nil {
		e.monitor.Step(e.prev, e.now)
	}
	e.prev, e.now = e.now, t
	return true
}

// Run executes events until the queue is empty: RunUntil with no deadline.
func (e *Engine) Run() { e.RunUntil(math.MaxInt64) }

// RunUntil executes events with time <= deadline. It reports whether the
// queue drained (true) or the deadline was hit with events pending (false).
// A panic in a process body reaches the caller with its original value,
// after every other process has been released.
func (e *Engine) RunUntil(deadline int64) bool {
	returned := false
	e.deadline = deadline
	defer func() {
		e.deadline = noDeadline
		if !returned {
			e.Release()
		}
	}()
	for {
		t, pending := e.events.peekTime()
		if !pending || t > deadline {
			returned = true
			return !pending
		}
		e.Step()
	}
}

// Release unwinds every process that has not finished, so none keeps its
// coroutine stack after the simulation is abandoned (deadlock, cycle
// budget, or panic). A process that never ran is just marked done. It must
// be called from outside the event loop; released processes never resume.
func (e *Engine) Release() {
	for _, p := range e.procs {
		p.release()
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.events.len() }

// Blocked returns the processes that have neither finished nor been killed
// but are parked with no pending wake event. A non-empty result after Run
// indicates simulated deadlock.
func (e *Engine) Blocked() []*Proc {
	var b []*Proc
	for _, p := range e.procs {
		if !p.done && p.parked {
			b = append(b, p)
		}
	}
	return b
}
