package sim

import (
	"fmt"
	"runtime"
	"testing"
)

func TestProcBasicTiming(t *testing.T) {
	e := NewEngine()
	var trace []int64
	e.Go("p", func(p *Proc) {
		trace = append(trace, e.Now())
		p.Delay(10)
		trace = append(trace, e.Now())
		p.WaitUntil(100)
		trace = append(trace, e.Now())
		p.WaitUntil(50) // in the past: no-op
		trace = append(trace, e.Now())
	})
	e.Run()
	want := []int64{0, 10, 100, 100}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "a")
				p.Delay(10)
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "b")
				p.Delay(10)
			}
		})
		e.Run()
		return trace
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// Process a was started first and must win every same-time tie.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("trace = %v, want %v", first, want)
		}
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var wokenAt int64 = -1
	p := e.Go("sleeper", func(p *Proc) {
		p.Park()
		wokenAt = e.Now()
	})
	e.Go("waker", func(q *Proc) {
		q.Delay(42)
		p.Wake(e.Now())
	})
	e.Run()
	if wokenAt != 42 {
		t.Fatalf("woken at %d, want 42", wokenAt)
	}
	if !p.Done() {
		t.Fatal("sleeper not done")
	}
}

func TestKillParked(t *testing.T) {
	e := NewEngine()
	reached := false
	p := e.Go("victim", func(p *Proc) {
		p.Park()
		reached = true // must never run
	})
	e.Go("killer", func(q *Proc) {
		q.Delay(5)
		p.Kill()
	})
	e.Run()
	if reached {
		t.Fatal("killed process continued past Park")
	}
	if !p.Done() || !p.Killed() {
		t.Fatalf("done=%v killed=%v, want true,true", p.Done(), p.Killed())
	}
}

func TestKillWaiting(t *testing.T) {
	e := NewEngine()
	reached := false
	p := e.Go("victim", func(p *Proc) {
		p.Delay(1000)
		reached = true
	})
	e.Go("killer", func(q *Proc) {
		q.Delay(5)
		p.Kill()
	})
	e.Run()
	if reached {
		t.Fatal("killed process continued past Delay")
	}
	if !p.Done() {
		t.Fatal("victim not done")
	}
	// The engine still drained (the stale wake event is a no-op).
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestBlockedDetectsDeadlock(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) {
		p.Park() // nobody wakes it
	})
	e.Run()
	b := e.Blocked()
	if len(b) != 1 || b[0].Name() != "stuck" {
		t.Fatalf("Blocked = %v, want [stuck]", b)
	}
}

func TestProcSpawnedMidRun(t *testing.T) {
	e := NewEngine()
	var trace []int64
	e.Go("parent", func(p *Proc) {
		p.Delay(10)
		e.Go("child", func(c *Proc) {
			c.Delay(5)
			trace = append(trace, e.Now())
		})
		p.Delay(20)
		trace = append(trace, e.Now())
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 15 || trace[1] != 30 {
		t.Fatalf("trace = %v, want [15 30]", trace)
	}
}

// TestPanicReachesRunCaller pins panic propagation: a panic in a process
// body (anything but the kill unwind) reaches the caller of Run with its
// original value, and every other process is released on the way out.
func TestPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	parked := e.Go("parked", func(p *Proc) { p.Park() })
	waiting := e.Go("waiting", func(p *Proc) { p.Delay(1000) })
	var late, orphan *Proc
	e.At(2, func() {
		late = e.Go("late", func(p *Proc) { p.Park() })
	})
	e.Go("bad", func(p *Proc) {
		p.Delay(3)
		// orphan's first dispatch is still queued when the panic hits.
		orphan = e.Go("orphan", func(p *Proc) { t.Error("orphan ran") })
		panic("kernel bug")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != "kernel bug" {
		t.Fatalf("recovered %#v, want the original panic value", got)
	}
	for _, p := range []*Proc{parked, waiting, late, orphan} {
		if !p.Done() {
			t.Errorf("%s not released", p.Name())
		}
	}
	if b := e.Blocked(); len(b) != 0 {
		t.Errorf("Blocked = %v after the panic, want none", b)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines = %d after the panic, want <= %d", n, base)
	}
}

// TestReleaseUnwindsSuspended pins Release: suspended processes unwind
// (their deferred calls run), processes that never ran are marked done
// without running, and a later Run does not resume any of them.
func TestReleaseUnwindsSuspended(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			p.Park()
			t.Error("released process resumed")
		})
	}
	e.Run()
	if len(e.Blocked()) != 3 {
		t.Fatalf("Blocked = %v, want three parked processes", e.Blocked())
	}
	never := e.Go("never", func(p *Proc) { t.Error("released process started") })
	e.Release()
	if unwound != 3 {
		t.Errorf("unwound = %d, want 3", unwound)
	}
	if !never.Done() || len(e.Blocked()) != 0 {
		t.Errorf("never.Done = %v, Blocked = %v after Release", never.Done(), e.Blocked())
	}
	e.Run()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines = %d after Release, want <= %d", n, base)
	}
}

// stepLog is a monitor that appends each reported step to a shared log,
// so tests can check where steps fall relative to process actions.
type stepLog struct{ log *[]string }

func (m stepLog) Step(prev, now int64) {
	*m.log = append(*m.log, fmt.Sprintf("step %d->%d", prev, now))
}

// TestWaitInPlaceDeadline pins the in-place wake at RunUntil's deadline: a
// lone process whose wakes are always next runs without queue round trips
// up to the deadline, stops with its wake past the deadline queued, and
// resumes exactly as an uninterrupted run.
func TestWaitInPlaceDeadline(t *testing.T) {
	run := func(split bool) (trace []int64, steps int) {
		e := NewEngine()
		var log []string
		e.SetMonitor(stepLog{&log})
		e.Go("loop", func(p *Proc) {
			for i := 0; i < 6; i++ {
				trace = append(trace, e.Now())
				p.Delay(10)
			}
		})
		if split {
			if e.RunUntil(35) {
				t.Fatal("RunUntil(35) drained with the wake at 40 pending")
			}
			if e.Now() != 30 || e.Pending() != 1 {
				t.Fatalf("after RunUntil(35): Now = %d, Pending = %d; want 30, 1", e.Now(), e.Pending())
			}
			if len(log) != 4 {
				t.Fatalf("steps after RunUntil(35) = %v, want start and three wakes", log)
			}
		}
		e.Run()
		return trace, len(log)
	}
	whole, wholeSteps := run(false)
	split, splitSteps := run(true)
	if fmt.Sprint(whole) != fmt.Sprint(split) || wholeSteps != splitSteps {
		t.Fatalf("split run %v (%d steps), whole run %v (%d steps)", split, splitSteps, whole, wholeSteps)
	}
	if want := "[0 10 20 30 40 50]"; fmt.Sprint(whole) != want {
		t.Fatalf("trace = %v, want %s", whole, want)
	}
	if wholeSteps != 7 {
		t.Fatalf("steps = %d, want 7 (start and six wakes)", wholeSteps)
	}
}

// TestWaitInPlaceMonitorOrder pins the monitor contract of the in-place
// wake: RunUntil (which wakes in place where it can) and a Step-driven
// loop (which never does) report the same steps, interleaved with the
// processes' actions in the same order.
func TestWaitInPlaceMonitorOrder(t *testing.T) {
	run := func(byStep bool) []string {
		e := NewEngine()
		var log []string
		e.SetMonitor(stepLog{&log})
		note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
		var sleeper *Proc
		sleeper = e.Go("sleeper", func(p *Proc) {
			note("sleeper park")
			p.Park()
			note("sleeper woke")
			p.Delay(7) // alone by then: in place
			note("sleeper done")
		})
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				note("a")
				p.Delay(10)
			}
			sleeper.Wake(e.Now() + 1)
			p.Delay(3) // sleeper's wake at +1 is pending: queued
			note("a done")
		})
		e.Go("b", func(p *Proc) {
			p.Delay(5)
			note("b")
			p.WaitUntil(25)
			note("b done")
		})
		e.At(12, func() { note("event") })
		if byStep {
			for e.Step() {
			}
		} else {
			e.Run()
		}
		return log
	}
	inPlace, queued := run(false), run(true)
	if len(inPlace) != len(queued) {
		t.Fatalf("RunUntil log:\n%v\nStep log:\n%v", inPlace, queued)
	}
	for i := range queued {
		if inPlace[i] != queued[i] {
			t.Fatalf("logs diverge at %d: RunUntil %q, Step %q\nRunUntil: %v\nStep: %v",
				i, inPlace[i], queued[i], inPlace, queued)
		}
	}
}

// TestStepDrivenRunsOneWakePerStep pins that only RunUntil wakes in place:
// driven by Step, before or after a RunUntil, every wake is one queued
// event.
func TestStepDrivenRunsOneWakePerStep(t *testing.T) {
	e := NewEngine()
	e.Go("loop", func(p *Proc) {
		for {
			p.Delay(10)
		}
	})
	defer e.Release()
	if !e.Step() || e.Now() != 0 || e.Pending() != 1 {
		t.Fatalf("first Step: Now = %d, Pending = %d; want 0, 1", e.Now(), e.Pending())
	}
	for want := int64(10); want <= 30; want += 10 {
		if !e.Step() || e.Now() != want || e.Pending() != 1 {
			t.Fatalf("Step: Now = %d, Pending = %d; want %d, 1", e.Now(), e.Pending(), want)
		}
	}
	if e.RunUntil(55) || e.Now() != 50 {
		t.Fatalf("RunUntil(55): Now = %d, want 50", e.Now())
	}
	if !e.Step() || e.Now() != 60 || e.Pending() != 1 {
		t.Fatalf("Step after RunUntil: Now = %d, Pending = %d; want 60, 1", e.Now(), e.Pending())
	}
}
