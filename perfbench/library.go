package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"slipstream"
	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/obs"
	"slipstream/internal/runspec"
)

// setupRepeats is how many times a library run sets up; setup_s is the
// median.
const setupRepeats = 21

// libRun is one simulation of a library pass: its spec, the kernel built
// for it in set-up, and the digest every pass must reproduce.
type libRun struct {
	spec   runspec.RunSpec
	kernel core.Kernel
	want   string
}

// passResult is one timed pass over a library workload's runs.
type passResult struct {
	wall    time.Duration   // Σ of the runs' slipstream.Run wall times
	runWall []time.Duration // per run, in pass order
	results []*core.Result
	metrics *obs.Metrics // the pass's observer registry (traced passes only)
}

// runLibrary runs a library workload: the given specs back to back in one
// goroutine through slipstream.Run, repeated as whole passes for the timed
// phase.
func runLibrary(c config, specs []runspec.RunSpec) (*outcome, error) {
	out := &outcome{e2e: metricSet{}, layer: metricSet{}}

	// Set-up: build every kernel and warm the simulator with a tiny-size
	// run of each configuration. Repeated; the last set-up's kernels run.
	var runs []libRun
	var setups, newTimes []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		runs, newTimes, err = setupLibrary(specs, newTimes)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Pins exist for the default seed's specs; paper-slipstream's specs do
	// not depend on the seed, so its pins hold at every seed.
	for i := range runs {
		runs[i].want = pinnedDigests[runs[i].spec.String()]
	}

	before := readRuntime()
	untraced := timedPasses(c.seconds, runs, false, out)
	after := readRuntime()

	if !c.trace {
		libraryE2E(out.e2e, untraced, setups)
		return out, nil
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	traced := timedPasses(c.seconds, runs, true, out)
	pprof.StopCPUProfile()
	shares, err := profileShares(&prof)
	if err != nil {
		return nil, err
	}

	l := out.layer
	runtimeLayer(l, before, after)
	addShares(l, shares)
	first := traced[0]
	events := float64(first.metrics.Counter("engine.events"))
	untracedWall := median(passWalls(untraced))
	l.add("sim.events", events, "count")
	l.add("sim.parks", float64(first.metrics.Counter("park.count")), "count")
	if events > 0 {
		l.add("sim.host_ns_per_event", untracedWall*1e9/events, "ns")
	}
	resultLayers(l, first.results)
	for k, ts := range runTimesByKernel(runs, untraced) {
		l.add("core.run_s."+k, median(ts), "s")
	}
	l.add("kernels.new_s", median(newTimes), "s")
	l.add("obs.trace_overhead_frac", median(passWalls(traced))/untracedWall-1, "fraction")
	return out, nil
}

// setupLibrary builds one kernel per spec, timing each construction, and
// warms each configuration with a tiny-size run.
func setupLibrary(specs []runspec.RunSpec, newTimes []float64) ([]libRun, []float64, error) {
	runs := make([]libRun, len(specs))
	for i, sp := range specs {
		t0 := time.Now()
		k, err := kernels.NewParams(sp.Kernel, sp.Size, sp.Params)
		newTimes = append(newTimes, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("building %v: %w", sp, err)
		}
		runs[i] = libRun{spec: sp, kernel: k}

		warm := sp
		warm.Size = kernels.Tiny
		wk, err := kernels.NewParams(warm.Kernel, warm.Size, warm.Params)
		if err != nil {
			return nil, nil, fmt.Errorf("building %v: %w", warm, err)
		}
		res, err := slipstream.Run(warm.Options(), wk)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up %v: %w", warm, err)
		}
		if res.VerifyErr != nil {
			return nil, nil, fmt.Errorf("warm-up %v: %w", warm, res.VerifyErr)
		}
	}
	return runs, newTimes, nil
}

// timedPasses repeats whole passes until d has elapsed (at least one),
// checking every result: a nil error and VerifyErr, and a digest equal to
// the pinned one or, without a pin, to the first pass's.
func timedPasses(d time.Duration, runs []libRun, traced bool, out *outcome) []passResult {
	var passes []passResult
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < d {
		p := passResult{}
		if traced {
			p.metrics = &obs.Metrics{}
		}
		for i := range runs {
			r := &runs[i]
			opts := r.spec.Options()
			if traced {
				opts.Observers = []obs.Observer{p.metrics}
			}
			out.attempted++
			t0 := time.Now()
			res, err := slipstream.Run(opts, r.kernel)
			dt := time.Since(t0)
			p.wall += dt
			p.runWall = append(p.runWall, dt)
			p.results = append(p.results, res)
			switch {
			case err != nil:
				out.fail("%v: %v", r.spec, err)
				continue
			case res.VerifyErr != nil:
				out.fail("%v: verification: %v", r.spec, res.VerifyErr)
				continue
			}
			got, err := digest(res)
			if err != nil {
				out.fail("%v: %v", r.spec, err)
				continue
			}
			if r.want == "" {
				r.want = got
			} else if got != r.want {
				out.fail("%v: result digest %s, want %s", r.spec, got, r.want)
			}
		}
		passes = append(passes, p)
	}
	return passes
}

func passWalls(ps []passResult) []float64 {
	var ws []float64
	for _, p := range ps {
		ws = append(ws, p.wall.Seconds())
	}
	return ws
}

// accesses is a result's simulated shared-memory accesses.
func accesses(r *core.Result) int64 { return r.Mem.L1Hits + r.Mem.L1Misses }

// libraryE2E fills the end-to-end metrics of a library workload. A
// "request" here is one pass, the sweep a user runs over the workload's
// configurations: its latency is less sensitive to host drift than that of
// its shortest kernel.
func libraryE2E(m metricSet, passes []passResult, setups []float64) {
	var rates, reqRates, lat []float64
	for _, p := range passes {
		var acc int64
		for _, r := range p.results {
			if r != nil {
				acc += accesses(r)
			}
		}
		rates = append(rates, float64(acc)/p.wall.Seconds()/1e6)
		reqRates = append(reqRates, 1/p.wall.Seconds())
		lat = append(lat, ms(p.wall))
	}
	var cycles int64
	for _, r := range passes[0].results {
		if r != nil {
			cycles += r.Cycles
		}
	}
	m.add("setup_s", median(setups), "s")
	m.add("sim_maccess_per_s", median(rates), "Maccess/s")
	m.add("sim_cycles", float64(cycles), "cycles")
	m.add("req_p50_ms", percentile(lat, 50), "ms")
	m.add("req_p99_ms", percentile(lat, 99), "ms")
	m.add("req_per_s", median(reqRates), "req/s")
}

// resultLayers fills the memsys and core counters of one pass (or one
// served round's distinct simulations) from their results.
func resultLayers(m metricSet, results []*core.Result) {
	var hits, misses, l2m, local, remote, inval, rec, arsync, tl, si int64
	for _, r := range results {
		if r == nil {
			continue
		}
		hits += r.Mem.L1Hits
		misses += r.Mem.L1Misses
		l2m += r.Mem.L2Misses
		local += r.Mem.LocalDirReqs
		remote += r.Mem.RemoteDirReqs
		inval += r.Mem.Invalidations
		rec += int64(r.Recoveries)
		for _, bd := range r.Tasks {
			arsync += bd.ARSync
		}
		for _, bd := range r.ATasks {
			arsync += bd.ARSync
		}
		tl += r.TL.TransparentIssued
		si += r.SI.HintsSent
	}
	m.add("memsys.accesses", float64(hits+misses), "count")
	if hits+misses > 0 {
		m.add("memsys.l1_hit_ratio", float64(hits)/float64(hits+misses), "fraction")
	}
	m.add("memsys.l2_misses", float64(l2m), "count")
	if local+remote > 0 {
		m.add("memsys.dir_remote_frac", float64(remote)/float64(local+remote), "fraction")
	}
	m.add("memsys.invalidations", float64(inval), "count")
	m.add("core.recoveries", float64(rec), "count")
	m.add("core.arsync_wait_cycles", float64(arsync), "cycles")
	m.add("core.tl_issued", float64(tl), "count")
	m.add("core.si_hints", float64(si), "count")
}

// runTimesByKernel groups the untraced slipstream.Run wall times by kernel.
func runTimesByKernel(runs []libRun, passes []passResult) map[string][]float64 {
	by := make(map[string][]float64)
	for _, p := range passes {
		for i, d := range p.runWall {
			k := runs[i].spec.Kernel
			by[k] = append(by[k], d.Seconds())
		}
	}
	return by
}
