package core

import (
	"runtime"
	"strings"
	"testing"
)

// deadlockKernel waits on an event nobody signals.
type deadlockKernel struct{}

func (k *deadlockKernel) Name() string            { return "deadlock" }
func (k *deadlockKernel) Setup(p *Program)        {}
func (k *deadlockKernel) Verify(p *Program) error { return nil }
func (k *deadlockKernel) Task(c *Ctx) {
	if c.ID() == 0 {
		c.WaitEvent(12345) // never signaled
	}
	c.Barrier()
}

func TestDeadlockIsDetected(t *testing.T) {
	_, err := Run(Options{Mode: ModeSingle, CMPs: 2}, &deadlockKernel{})
	if err == nil {
		t.Fatal("deadlocked run returned no error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error does not mention deadlock: %v", err)
	}
}

// lopsidedKernel reaches different barrier counts per task — a kernel bug
// the runner must surface rather than hang on.
type lopsidedKernel struct{}

func (k *lopsidedKernel) Name() string            { return "lopsided" }
func (k *lopsidedKernel) Setup(p *Program)        {}
func (k *lopsidedKernel) Verify(p *Program) error { return nil }
func (k *lopsidedKernel) Task(c *Ctx) {
	if c.ID() == 0 {
		c.Barrier()
	}
	// Everyone else returns without the barrier.
}

func TestMismatchedBarriersAreDetected(t *testing.T) {
	_, err := Run(Options{Mode: ModeSingle, CMPs: 3}, &lopsidedKernel{})
	if err == nil {
		t.Fatal("mismatched barriers returned no error")
	}
}

// spinKernel burns simulated time forever.
type spinKernel struct{}

func (k *spinKernel) Name() string            { return "spin" }
func (k *spinKernel) Setup(p *Program)        {}
func (k *spinKernel) Verify(p *Program) error { return nil }
func (k *spinKernel) Task(c *Ctx) {
	for {
		c.Compute(1000000)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	_, err := Run(Options{Mode: ModeSingle, CMPs: 1, MaxCycles: 5_000_000}, &spinKernel{})
	if err == nil {
		t.Fatal("runaway kernel returned no error")
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("error does not mention the cycle budget: %v", err)
	}
}

// TestFailedRunsReleaseProcesses pins that a run abandoned on deadlock
// or on its cycle budget unwinds its suspended processes: a long-lived
// caller (slipsimd) must not keep one coroutine stack per failed spec.
// Release is synchronous, so the count is back at once.
func TestFailedRunsReleaseProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := Run(Options{Mode: ModeSingle, CMPs: 2}, &deadlockKernel{}); err == nil {
			t.Fatal("deadlocked run returned no error")
		}
		if _, err := Run(Options{Mode: ModeSingle, CMPs: 1, MaxCycles: 5_000_000}, &spinKernel{}); err == nil {
			t.Fatal("runaway kernel returned no error")
		}
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines = %d after 100 failed runs, want <= %d", got, base)
	}
}

func TestUnknownModeRejected(t *testing.T) {
	if _, err := Run(Options{Mode: Mode(99), CMPs: 2}, &deadlockKernel{}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
