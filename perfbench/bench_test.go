package main

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		cat := catalogue(seed)
		if !reflect.DeepEqual(cat, catalogue(seed)) {
			t.Fatalf("seed %d: catalogue differs between calls", seed)
		}
		if got := len(distinct(cat)); got != len(cat) || got != 600 {
			t.Fatalf("seed %d: catalogue has %d distinct of %d specs, want 600", seed, got, len(cat))
		}
		for _, sp := range cat {
			if err := sp.Validate(); err != nil {
				t.Fatalf("seed %d: %v: %v", seed, sp, err)
			}
		}
		seq := draws(seed, cat, roundRequests)
		if !reflect.DeepEqual(seq, draws(seed, catalogue(seed), roundRequests)) {
			t.Fatalf("seed %d: draw sequence differs between calls", seed)
		}
		if !reflect.DeepEqual(synthCoherenceSpecs(seed), synthCoherenceSpecs(seed)) {
			t.Fatalf("seed %d: synth-coherence specs differ between calls", seed)
		}
		// About 17% of the requests of a round miss the fleet's memo.
		if miss := float64(len(distinct(seq))) / float64(len(seq)); miss < 0.12 || miss > 0.22 {
			t.Errorf("seed %d: %.3f of requests are first draws, want about 0.17", seed, miss)
		}
	}
	if reflect.DeepEqual(draws(1, catalogue(1), 100), draws(2, catalogue(2), 100)) {
		t.Error("seeds 1 and 2 draw the same requests")
	}
	if reflect.DeepEqual(synthCoherenceSpecs(1), synthCoherenceSpecs(2)) {
		t.Error("seeds 1 and 2 give the same SYNTH seeds")
	}
	// served-zipf's sim_cycles sums the leading specs, so they must not
	// depend on the seed, and must be exactly the non-SYNTH ones.
	fixed := catalogue(1)[:catalogueFixed]
	if !reflect.DeepEqual(fixed, catalogue(2)[:catalogueFixed]) {
		t.Error("the leading catalogue specs depend on the seed")
	}
	for i, sp := range catalogue(1) {
		if (sp.Kernel == "SYNTH") != (i >= catalogueFixed) {
			t.Errorf("catalogue rank %d is %v; want the paper kernels exactly at ranks below %d", i, sp, catalogueFixed)
		}
	}
	for _, sp := range append(paperSlipstreamSpecs(), synthCoherenceSpecs(defaultSeed)...) {
		if _, ok := pinnedDigests[sp.String()]; !ok {
			t.Errorf("no pinned digest for default-seed spec %v", sp)
		}
	}
}

func TestPercentileRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		p, want float64
	}{
		{1, 50, 1}, {1, 99, 1},
		{6, 50, 3}, {6, 99, 6}, // three-run passes, two passes
		{15, 50, 8}, {15, 99, 15},
		{1000, 99, 990}, // ten samples beyond p99
		{2000, 50, 1000}, {2000, 99, 1980},
		{10000, 99, 9900},
	} {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("p%v of 1..%d = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
	for n := 1000; n <= 12000; n += 1000 {
		p99 := percentile(seq(n), 99)
		if beyond := n - int(p99); beyond < 10 {
			t.Errorf("p99 of %d samples leaves %d beyond it, want at least 10", n, beyond)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.chanrecv":                                   "runtime_sched",
		"runtime.futex":                                      "runtime_sched",
		"runtime.(*waitq).dequeue":                           "runtime_sched",
		"sync.(*Mutex).lockSlow":                             "runtime_sched",
		"runtime.gcDrain":                                    "runtime_gc",
		"runtime.scanobject":                                 "runtime_gc",
		"runtime.(*gcWork).tryGet":                           "runtime_gc",
		"runtime.mallocgc":                                   "runtime_other",
		"runtime.memmove":                                    "runtime_other",
		"internal/runtime/maps.(*Map).getWithKeySmall":       "runtime_other",
		"slipstream/internal/memsys.(*Cache).Lookup":         "memsys",
		"slipstream/internal/sim.(*Engine).Step":             "sim",
		"slipstream/internal/core.(*Ctx).access":             "core",
		"slipstream/internal/stats.(*MemStats).Merge":        "core",
		"slipstream.Run":                                     "core",
		"slipstream/internal/kernels/ocean.(*Kernel).Task":   "kernels",
		"slipstream/internal/obs.(*Bus).Emit":                "obs",
		"slipstream/internal/runcache.(*Cache).Store":        "runcache",
		"slipstream/internal/service.(*Server).submit":       "service",
		"slipstream/internal/service/client.(*Client).Run":   "service",
		"slipstream/internal/runspec.Executor.Execute":       "service",
		"encoding/json.(*decodeState).object":                "json",
		"net/http.(*conn).serve":                             "net_http",
		"net.(*conn).Read":                                   "net_http",
		"main.runServed":                                     "other",
		"main.runServed.func1":                               "other",
		"slices.SortFunc[go.shape.[]string,go.shape.string]": "",
		"sort.Float64s":                                      "",
		"syscall.Syscall":                                    "",
		"internal/runtime/syscall.Syscall6":                  "",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write"}, "net_http"},
		{[]string{"crypto/sha256.block", "slipstream/internal/runcache.KeyFor"}, "runcache"},
		{[]string{"strconv.ParseFloat", "encoding/json.(*decodeState).literalStore"}, "json"},
		{[]string{"math.Float64frombits", "slipstream/internal/memsys.(*Mem).LoadF"}, "memsys"},
		{[]string{"runtime.memmove", "slipstream/internal/memsys.(*System).Access"}, "runtime_other"},
		{[]string{"strconv.Itoa", "main.main"}, "other"},
		{[]string{"sort.Ints"}, "other"},
		{nil, "other"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func burn(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			n += i * i
		}
	}
	return n
}

func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var total, inBurn int64
	for i, st := range stacks {
		total += weights[i]
		for _, fn := range st {
			if fn == "slipstream/perfbench.burn" || fn == "main.burn" {
				inBurn += weights[i]
				break
			}
		}
	}
	if total == 0 || inBurn*2 < total {
		t.Fatalf("%d of %d samples in burn, want a majority", inBurn, total)
	}
	shares, err := profileShares(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("module shares sum to %v, want 1", sum)
	}
}

func TestParseCounters(t *testing.T) {
	cs, err := parseCounters("counter engine.events 42\ncounter service.sim.count 7\nhist mem.l1 count=3 sum=9 le1=3\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"engine.events": 42, "service.sim.count": 7}; !reflect.DeepEqual(cs, want) {
		t.Errorf("parseCounters = %v, want %v", cs, want)
	}
	if _, err := parseCounters("counter x notanumber\n"); err == nil {
		t.Error("malformed counter parsed without error")
	}
}
