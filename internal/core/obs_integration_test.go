package core

import (
	"reflect"
	"testing"

	"slipstream/internal/obs"
)

// TestObserversDoNotPerturbResults pins the central contract of the
// observation bus: attaching observers must not change simulated timing or
// any reported statistic.
func TestObserversDoNotPerturbResults(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    func() Kernel
		ar   ARSync
	}{
		{"stencil/L1", func() Kernel { return &stencilKernel{n: 1024, iters: 4} }, OneTokenLocal},
		{"gather/G0", func() Kernel { return &gatherKernel{n: 1024, iters: 3} }, ZeroTokenGlobal},
	} {
		run := func(observers ...obs.Observer) *Result {
			res, err := Run(Options{
				Mode: ModeSlipstream, CMPs: 4, ARSync: tc.ar,
				Observers: observers,
			}, tc.k())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		bare := run()
		observed := run(&obs.Metrics{}, &obs.ChromeTrace{}, &obs.Leads{})
		if !reflect.DeepEqual(bare, observed) {
			t.Errorf("%s: observers perturbed the result:\nbare:     %+v\nobserved: %+v", tc.name, bare, observed)
		}
	}
}

// TestTraceCapturesSlipstreamRun checks that a slipstream run's sessions,
// barrier waits, remote misses and A-over-R leads reach the bus.
func TestTraceCapturesSlipstreamRun(t *testing.T) {
	m, ct, leads := &obs.Metrics{}, &obs.ChromeTrace{}, &obs.Leads{}
	k := &stencilKernel{n: 1024, iters: 4}
	res, err := Run(Options{
		Mode: ModeSlipstream, CMPs: 4, ARSync: ZeroTokenLocal,
		Observers: []obs.Observer{m, ct, leads},
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	// 4 R-streams x 4 sessions plus 4 A-streams x 4 sessions.
	if got := m.Counter("session.count"); got < 16 {
		t.Errorf("session.count = %d, want >= 16", got)
	}
	if h := m.Histogram("wait.barrier"); h == nil || h.Count == 0 {
		t.Error("no barrier waits recorded")
	}
	if h := m.Histogram("mem.dir-remote"); h == nil || h.Count == 0 {
		t.Error("no remote-directory accesses recorded")
	}
	if ct.Len() == 0 {
		t.Error("Chrome trace recorded nothing")
	}
	if len(leads.Series()) == 0 {
		t.Fatal("no A-over-R leads computable")
	}
}

// TestMetricsObserverCountsMatchResult cross-checks derived metrics against
// the run's own Result counters.
func TestMetricsObserverCountsMatchResult(t *testing.T) {
	m := &obs.Metrics{}
	k := &chronicKernel{rounds: 10}
	res, err := Run(Options{
		Mode: ModeSlipstream, CMPs: 2, ARSync: OneTokenLocal,
		AdaptiveARSync: true, Observers: []obs.Observer{m},
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("recovery.count"); got != int64(res.Recoveries) {
		t.Errorf("recovery.count = %d, result says %d", got, res.Recoveries)
	}
	if got := m.Counter("policy.switch"); got != int64(res.PolicySwitches) {
		t.Errorf("policy.switch = %d, result says %d", got, res.PolicySwitches)
	}
	if got := m.Counter("run.count"); got != 1 {
		t.Errorf("run.count = %d, want 1", got)
	}
	if got := m.Counter("run.cycles"); got != res.Cycles {
		t.Errorf("run.cycles = %d, result says %d", got, res.Cycles)
	}
}
