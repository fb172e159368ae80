package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/runcache"
	"slipstream/internal/runspec"
	"slipstream/internal/service"
	"slipstream/internal/service/api"
	"slipstream/internal/service/client"
)

// Served-zipf shape.
const (
	servedReplicas = 2
	// roundRequests is the fixed request count of one round. The draw
	// sequence is the same every round, so the specs the fleet simulates
	// are a pure function of the seed, and p99 keeps 20 samples beyond it.
	roundRequests = 2000
	// setupsPerRound is how many fleets are started, timed and stopped
	// before each untraced round. Set-up takes milliseconds, so samples
	// taken all at once see one moment of the host; spread over the rounds
	// they see the same host as the timed phase.
	setupsPerRound = 4
)

// servedBudget bounds all HTTP work of one invocation: the untraced and the
// traced phase, with their set-ups and the local reference runs.
func servedBudget(c config) time.Duration { return 3*c.seconds + 90*time.Second }

// maxClients is the closed-loop client count: one per CPU, at most two.
func maxClients() int { return min(2, runtime.NumCPU()) }

// latencyLog collects durations in milliseconds from concurrent handlers.
type latencyLog struct {
	mu  sync.Mutex
	val []float64
}

func (l *latencyLog) add(d time.Duration) {
	l.mu.Lock()
	l.val = append(l.val, ms(d))
	l.mu.Unlock()
}

func (l *latencyLog) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.val...)
}

// timedStore is the runcache.Store decorator of traced rounds: it times
// every Load and Store of the store it wraps.
type timedStore struct {
	inner         runcache.Store
	loads, stores latencyLog
}

func (t *timedStore) Key(sp runspec.RunSpec) (string, error) { return t.inner.Key(sp) }
func (t *timedStore) Len() int                               { return t.inner.Len() }

func (t *timedStore) Load(sp runspec.RunSpec) (*core.Result, bool, error) {
	t0 := time.Now()
	res, ok, err := t.inner.Load(sp)
	t.loads.add(time.Since(t0))
	return res, ok, err
}

func (t *timedStore) Store(sp runspec.RunSpec, res *core.Result) error {
	t0 := time.Now()
	err := t.inner.Store(sp, res)
	t.stores.add(time.Since(t0))
	return err
}

// timedHandler records the duration of every request to path in log.
func timedHandler(h http.Handler, path string, log *latencyLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		log.add(time.Since(t0))
	})
}

// fleet is an in-process gateway over slipsimd replicas on loopback HTTP.
type fleet struct {
	servers    []*service.Server
	replicas   []string
	gateway    string
	https      []*http.Server
	transports []*http.Transport
	serving    sync.WaitGroup

	// Traced fleets only.
	stores        []*timedStore
	repLog, gwLog latencyLog
}

// warmupSpec is the one simulation a fleet answers before it counts as set
// up, so set-up includes any work deferred to the first request. It is not
// in the catalogue (which runs 4 CMPs), so rounds never draw it.
var warmupSpec = runspec.RunSpec{Kernel: "FFT", Size: kernels.Tiny, Mode: core.ModeSingle, CMPs: 1}.Normalize()

// startFleet opens a fresh run cache per replica, starts the replicas and
// the gateway on loopback listeners, waits until the gateway reports every
// replica healthy, and sends the warm-up request through the gateway.
func startFleet(ctx context.Context, dir string, traced bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < servedReplicas; i++ {
		cache, err := runcache.Open(filepath.Join(dir, fmt.Sprintf("replica-%d", i)), core.SimVersion)
		if err != nil {
			f.close()
			return nil, err
		}
		var store runcache.Store = cache
		if traced {
			ts := &timedStore{inner: cache}
			f.stores = append(f.stores, ts)
			store = ts
		}
		srv := service.New(service.Config{Workers: 1, Cache: store})
		f.servers = append(f.servers, srv)
		h := srv.Handler()
		if traced {
			h = timedHandler(h, api.PathRun, &f.repLog)
		}
		url, err := f.serve(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, url)
	}
	gw, err := service.NewGateway(service.GatewayConfig{Replicas: f.replicas, HTTPClient: f.httpClient()})
	if err != nil {
		f.close()
		return nil, err
	}
	h := gw.Handler()
	if traced {
		h = timedHandler(h, api.PathRun, &f.gwLog)
	}
	if f.gateway, err = f.serve(h); err != nil {
		f.close()
		return nil, err
	}
	c := f.client(f.gateway)
	for {
		hl, err := c.Health(ctx)
		if err == nil && hl.Status == "ok" {
			break
		}
		if ctx.Err() != nil {
			f.close()
			return nil, fmt.Errorf("fleet never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	res, _, err := c.Run(ctx, warmupSpec)
	if err == nil && res.VerifyErr != nil {
		err = res.VerifyErr
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up %v: %w", warmupSpec, err)
	}
	return f, nil
}

// httpClient returns a client with its own transport, closed with the fleet.
func (f *fleet) httpClient() *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	f.transports = append(f.transports, tr)
	return &http.Client{Transport: tr}
}

func (f *fleet) client(base string) *client.Client {
	c := client.New(base)
	c.HTTPClient = f.httpClient()
	return c
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // always http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, waits for their connections and serve loops,
// then stops the replicas' workers.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- { // gateway first
		if err := f.https[i].Shutdown(ctx); err != nil {
			f.https[i].Close()
		}
	}
	f.serving.Wait()
	for _, s := range f.servers {
		s.Close()
	}
	for _, tr := range f.transports {
		tr.CloseIdleConnections()
	}
}

// roundResult is one closed-loop pass of the draw sequence through a fleet.
type roundResult struct {
	wall     time.Duration
	lat      []float64 // client-observed, ms, in request order
	digests  []string  // "" where the request failed
	cached   int
	counters map[string]int64 // summed over the replicas' /metrics
	gateway  map[string]int64 // the gateway's /metrics

	// Traced rounds only: run-cache and handler timings, in ms.
	loads, stores, handle, gwHandle []float64
}

// drive sends seq through the gateway from nClients closed-loop clients,
// each waiting for its reply before taking the next request.
func (f *fleet) drive(ctx context.Context, seq []runspec.RunSpec, nClients int, out *outcome) (*roundResult, error) {
	rr := &roundResult{lat: make([]float64, len(seq)), digests: make([]string, len(seq))}
	results := make([]*core.Result, len(seq))
	cached := make([]bool, len(seq))
	errs := make([]error, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < nClients; i++ {
		c := f.client(f.gateway)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(seq) {
					return
				}
				t0 := time.Now()
				resp, _, err := c.Submit(ctx, api.RunRequest{Specs: seq[j : j+1]})
				rr.lat[j] = ms(time.Since(t0))
				if err != nil {
					errs[j] = err
					continue
				}
				results[j], cached[j] = resp.Results[0], resp.Cached[0]
			}
		}()
	}
	wg.Wait()
	rr.wall = time.Since(start)

	for j, res := range results {
		out.attempted++
		switch {
		case errs[j] != nil:
			out.fail("request %d %v: %v", j, seq[j], errs[j])
			continue
		case res.VerifyErr != nil:
			out.fail("request %d %v: verification: %v", j, seq[j], res.VerifyErr)
			continue
		}
		d, err := digest(res)
		if err != nil {
			out.fail("request %d %v: %v", j, seq[j], err)
			continue
		}
		rr.digests[j] = d
		if cached[j] {
			rr.cached++
		}
	}

	rr.counters = map[string]int64{}
	for _, r := range f.replicas {
		cs, err := scrape(ctx, f.client(r))
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", r, err)
		}
		for k, v := range cs {
			rr.counters[k] += v
		}
	}
	var err error
	if rr.gateway, err = scrape(ctx, f.client(f.gateway)); err != nil {
		return nil, fmt.Errorf("scraping gateway: %w", err)
	}
	return rr, nil
}

// scrape reads the counters of a /metrics page.
func scrape(ctx context.Context, c *client.Client) (map[string]int64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	return parseCounters(text)
}

// parseCounters parses the "counter <name> <value>" lines of the obs text
// format; histogram lines are skipped.
func parseCounters(text string) (map[string]int64, error) {
	cs := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] != "counter" {
			continue
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		cs[f[1]] = v
	}
	return cs, sc.Err()
}

// timeSetup starts a fleet from a collected heap, stops it again, and
// returns how long it took to be set up.
func timeSetup(ctx context.Context, dir string) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	f, err := startFleet(ctx, dir, false)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0).Seconds()
	f.close()
	return d, nil
}

// servedRounds runs rounds of seq, each through a fresh fleet, until d has
// elapsed (at least one). Untraced rounds also return the set-up times of
// the fleets timed before each of them.
func servedRounds(ctx context.Context, c config, d time.Duration, seq []runspec.RunSpec, traced bool, out *outcome) ([]*roundResult, []float64, error) {
	var rounds []*roundResult
	var setups []float64
	want := int64(len(distinct(seq)))
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < d {
		for i := 0; i < setupsPerRound && !traced; i++ {
			s, err := timeSetup(ctx, filepath.Join(c.workdir, fmt.Sprintf("setup-%d-%d", len(rounds), i)))
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, s)
		}
		f, err := startFleet(ctx, filepath.Join(c.workdir, fmt.Sprintf("round-%d-%t", len(rounds), traced)), traced)
		if err != nil {
			return nil, nil, err
		}
		rr, err := f.drive(ctx, seq, maxClients(), out)
		f.close()
		if err == nil && ctx.Err() != nil {
			// Requests cut off by the benchmark's own deadline are not
			// failures of the program.
			err = fmt.Errorf("served budget exhausted: %w", ctx.Err())
		}
		if err != nil {
			return nil, nil, err
		}
		for _, ts := range f.stores {
			rr.loads = append(rr.loads, ts.loads.values()...)
			rr.stores = append(rr.stores, ts.stores.values()...)
		}
		rr.handle, rr.gwHandle = f.repLog.values(), f.gwLog.values()
		runtime.GC() // start every round from the same heap state
		// Fleet-wide coalescing: every distinct spec, and the warm-up spec,
		// simulates exactly once.
		out.attempted++
		if got := rr.counters["service.sim.count"]; got != want+1 {
			out.fail("fleet simulated %d runs for %d distinct specs and the warm-up", got, want)
		}
		rounds = append(rounds, rr)
	}
	return rounds, setups, nil
}

// runServed runs the served-zipf workload.
func runServed(c config) (*outcome, error) {
	out := &outcome{e2e: metricSet{}, layer: metricSet{}}
	ctx, cancel := context.WithTimeout(context.Background(), servedBudget(c))
	defer cancel()
	cat := catalogue(c.seed)
	seq := draws(c.seed, cat, roundRequests)

	before := readRuntime()
	untraced, setups, err := servedRounds(ctx, c, c.seconds, seq, false, out)
	if err != nil {
		return nil, err
	}
	after := readRuntime()

	var traced []*roundResult
	var prof bytes.Buffer
	if c.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		traced, _, err = servedRounds(ctx, c, c.seconds, seq, true, out)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
	}
	// Reference results, simulated locally after the timed phase.
	specs := distinct(seq)
	refs := make([]*core.Result, len(specs))
	ref := make(map[runspec.RunSpec]*core.Result, len(specs))
	want := make(map[runspec.RunSpec]string, len(specs))
	for i, sp := range specs {
		res, err := sp.Run()
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", sp, err)
		}
		if want[sp], err = digest(res); err != nil {
			return nil, err
		}
		refs[i], ref[sp] = res, res
	}
	for _, rr := range append(append([]*roundResult(nil), untraced...), traced...) {
		for j, d := range rr.digests {
			if d != "" && d != want[seq[j]] {
				out.fail("request %d %v: served digest %s, local %s", j, seq[j], d, want[seq[j]])
			}
		}
	}
	var acc int64
	for _, r := range refs {
		acc += accesses(r)
	}
	// sim_cycles sums the modelled time of the catalogue's paper-kernel
	// specs. They do not depend on the seed, so the sum is exact across
	// seeds and only a change to simulated results moves it. They are the
	// most popular specs and always drawn in practice; one that was not is
	// simulated here.
	var cycles int64
	for _, sp := range cat[:catalogueFixed] {
		res := ref[sp]
		if res == nil {
			if res, err = sp.Run(); err != nil {
				return nil, fmt.Errorf("reference %v: %w", sp, err)
			}
		}
		cycles += res.Cycles
	}

	if !c.trace {
		var lat, rates, reqRates []float64
		for _, rr := range untraced {
			lat = append(lat, rr.lat...)
			rates = append(rates, float64(acc)/rr.wall.Seconds()/1e6)
			reqRates = append(reqRates, float64(len(seq))/rr.wall.Seconds())
		}
		m := out.e2e
		m.add("setup_s", median(setups), "s")
		m.add("sim_maccess_per_s", median(rates), "Maccess/s")
		m.add("sim_cycles", float64(cycles), "cycles")
		m.add("req_p50_ms", percentile(lat, 50), "ms")
		m.add("req_p99_ms", percentile(lat, 99), "ms")
		m.add("req_per_s", median(reqRates), "req/s")
		return out, nil
	}

	shares, err := profileShares(&prof)
	if err != nil {
		return nil, err
	}
	l := out.layer
	runtimeLayer(l, before, after)
	addShares(l, shares)
	first := traced[0]
	l.add("sim.events", float64(first.counters["engine.events"]), "count")
	l.add("sim.parks", float64(first.counters["park.count"]), "count")
	resultLayers(l, refs)
	l.add("obs.trace_overhead_frac", median(roundWalls(traced))/median(roundWalls(untraced))-1, "fraction")

	var loads, stores, handle, gwHandle []float64
	for _, rr := range traced {
		loads = append(loads, rr.loads...)
		stores = append(stores, rr.stores...)
		handle = append(handle, rr.handle...)
		gwHandle = append(gwHandle, rr.gwHandle...)
	}
	l.add("runcache.loads", float64(len(first.loads)), "count")
	l.add("runcache.stores", float64(len(first.stores)), "count")
	l.add("runcache.load_ms_p50", percentile(loads, 50), "ms")
	l.add("runcache.store_ms_p50", percentile(stores, 50), "ms")
	l.add("service.handle_ms_p50", percentile(handle, 50), "ms")
	l.add("service.handle_ms_p99", percentile(handle, 99), "ms")
	l.add("service.sim_count", float64(first.counters["service.sim.count"]), "count")
	l.add("service.memo_hit_ratio", float64(first.cached)/float64(len(seq)), "fraction")
	l.add("gateway.handle_ms_p50", percentile(gwHandle, 50), "ms")
	l.add("gateway.requests", float64(first.gateway["gateway.requests"]), "count")
	l.add("gateway.rehash", float64(first.gateway["gateway.rehash"]), "count")
	return out, nil
}

func roundWalls(rs []*roundResult) []float64 {
	var ws []float64
	for _, r := range rs {
		ws = append(ws, r.wall.Seconds())
	}
	return ws
}
