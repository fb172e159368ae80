//go:build go1.23

package sim

import "iter"

// killedError is the sentinel panic value used to unwind a killed process.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed" }

// Proc is a simulated process: a coroutine (iter.Pull) whose execution is
// interleaved with simulated time. Control moves between the event loop
// and a process only by direct coroutine switches, never through the Go
// scheduler. All Proc methods except Kill and Wake must be called from the
// process's own body.
type Proc struct {
	eng *Engine
	// next resumes the coroutine until its next yield; stop unwinds a
	// suspended coroutine. Both are nil until the process first runs.
	next   func() (struct{}, bool)
	stop   func()
	yieldc func(struct{}) bool
	fn     func(p *Proc)
	name   string
	done   bool
	parked bool
	killed bool

	// dispatchFn is the bound dispatch method, created once at Go so the
	// wait/wake hot paths (WaitUntil, Wake, Kill) schedule it without
	// allocating a fresh method value per call.
	dispatchFn func()
}

// Go starts a new simulated process running fn. The process begins at the
// current simulated time, after already-queued events at this time. Its
// coroutine is created when it first runs, so a process released before
// then never holds a stack.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	//simlint:ignore hotpathalloc one process record per spawned task, amortized over its simulated lifetime
	p := &Proc{eng: e, fn: fn, name: name}
	p.dispatchFn = p.dispatch
	//simlint:ignore hotpathalloc process table is bounded by the spawned task count
	e.procs = append(e.procs, p)
	e.After(0, p.start)
	return p
}

// start creates the process's coroutine and runs it to its first yield.
func (p *Proc) start() {
	if p.done {
		return
	}
	p.next, p.stop = iter.Pull(p.body)
	p.dispatch()
}

// body is the coroutine: it runs fn and turns a Kill or stop unwind into
// a normal return. Any other panic propagates to the dispatch that
// resumed the process, and from there to the caller of Engine.Run.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yieldc = yield
	defer p.finish()
	p.checkKilled()
	p.fn(p)
}

// finish marks the process done and swallows the killedError unwind.
func (p *Proc) finish() {
	p.done = true
	p.parked = false
	if r := recover(); r != nil {
		if _, ok := r.(killedError); !ok {
			panic(r)
		}
	}
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned or been killed.
func (p *Proc) Done() bool { return p.done }

// Killed reports whether Kill was called on the process.
func (p *Proc) Killed() bool { return p.killed }

// dispatch switches from the event loop into p's coroutine, and returns
// when p yields back.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.parked = false
	p.next()
}

// yield switches back to the event loop and returns when p is dispatched
// again. A false return means stop released the process: unwind it.
func (p *Proc) yield() {
	if !p.yieldc(struct{}{}) {
		panic(killedError{})
	}
	p.checkKilled()
}

func (p *Proc) checkKilled() {
	if p.killed {
		panic(killedError{})
	}
}

// release unwinds a suspended process, or marks one that never ran done.
func (p *Proc) release() {
	if p.done {
		return
	}
	if p.stop == nil {
		p.done = true
		return
	}
	p.stop()
}

// WaitUntil blocks the process until absolute simulated time t.
// Waiting for a past time returns immediately. Under RunUntil, when the
// wake would be the next event executed anyway, the clock advances in
// place: no push, no switch to the event loop and back, no pop.
func (p *Proc) WaitUntil(t int64) {
	e := p.eng
	if t <= e.now {
		p.checkKilled()
		return
	}
	if e.wakeInPlace(t) {
		p.checkKilled()
		return
	}
	e.At(t, p.dispatchFn)
	p.yield()
}

// Delay blocks the process for d cycles.
func (p *Proc) Delay(d int64) { p.WaitUntil(p.eng.now + d) }

// Park blocks the process until another process or event calls Wake.
func (p *Proc) Park() {
	p.parked = true
	p.yield()
}

// Wake schedules parked process p to resume at absolute time t. It is safe
// to call from any simulation context (the event loop or another process).
func (p *Proc) Wake(t int64) {
	p.eng.At(t, p.dispatchFn)
}

// Kill marks the process as killed and, if it is parked, wakes it so that
// it unwinds. The process unwinds at its next blocking point.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.parked {
		p.eng.At(p.eng.now, p.dispatchFn)
	}
}
