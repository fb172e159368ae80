// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a given time, checks every output it produces, and
// prints one JSON result line whose metrics are the end-to-end metrics
// (-trace 0) or the per-layer metrics of a separate traced run (-trace 1).
//
//	go run . -workload paper-slipstream -seed 1 -seconds 15 -trace 0
//
// Workloads:
//
//	paper-slipstream  OCEAN, SOR and FFT at paper size, slipstream G0+TL+SI, 8 CMPs
//	synth-coherence   SYNTH mig=0.3,fs=0.3,pc=4,wr=0.3 at paper size, double mode, 8 CMPs
//	served-zipf       a gateway over two slipsimd replicas on loopback HTTP,
//	                  closed-loop clients drawing tiny specs Zipf(1.1)
//
// Each workload runs in its own process, so peak RSS, GC counts and the
// CPU profile belong to that workload alone. See README.md for the metric
// definitions and which end-to-end metric each per-layer metric moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is the benchmark's result line.
type report struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string // scratch space for run caches; removed on exit
}

// layerMetrics lists every per-layer metric. A traced run reports all of
// them; those that do not apply to its workload read 0.
var layerMetrics = []struct{ name, unit string }{
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_frac", "fraction"},
	{"cpu.runtime_sched_frac", "fraction"}, {"cpu.runtime_gc_frac", "fraction"}, {"cpu.runtime_other_frac", "fraction"},
	{"sim.events", "count"}, {"sim.parks", "count"}, {"sim.host_ns_per_event", "ns"}, {"cpu.sim_frac", "fraction"},
	{"memsys.accesses", "count"}, {"memsys.l1_hit_ratio", "fraction"}, {"memsys.l2_misses", "count"},
	{"memsys.dir_remote_frac", "fraction"}, {"memsys.invalidations", "count"}, {"cpu.memsys_frac", "fraction"},
	{"core.run_s.OCEAN", "s"}, {"core.run_s.SOR", "s"}, {"core.run_s.FFT", "s"}, {"core.run_s.SYNTH", "s"},
	{"core.recoveries", "count"}, {"core.arsync_wait_cycles", "cycles"}, {"core.tl_issued", "count"},
	{"core.si_hints", "count"}, {"cpu.core_frac", "fraction"},
	{"kernels.new_s", "s"}, {"cpu.kernels_frac", "fraction"},
	{"cpu.obs_frac", "fraction"}, {"obs.trace_overhead_frac", "fraction"},
	{"runcache.loads", "count"}, {"runcache.stores", "count"}, {"runcache.load_ms_p50", "ms"},
	{"runcache.store_ms_p50", "ms"}, {"cpu.runcache_frac", "fraction"},
	{"service.handle_ms_p50", "ms"}, {"service.handle_ms_p99", "ms"}, {"service.sim_count", "count"},
	{"service.memo_hit_ratio", "fraction"}, {"cpu.service_frac", "fraction"},
	{"gateway.handle_ms_p50", "ms"}, {"gateway.requests", "count"}, {"gateway.rehash", "count"},
	{"cpu.json_frac", "fraction"}, {"cpu.net_http_frac", "fraction"}, {"cpu.other_frac", "fraction"},
}

// outcome is what a workload returns: its operation counts, the failed
// checks, and both metric sets. e2e is filled by untraced runs, layer by
// traced runs.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        metricSet
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"paper-slipstream": func(c config) (*outcome, error) { return runLibrary(c, paperSlipstreamSpecs()) },
	"synth-coherence": func(c config) (*outcome, error) {
		return runLibrary(c, synthCoherenceSpecs(c.seed))
	},
	"served-zipf": runServed,
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	workdir := flag.String("workdir", "", "directory for run caches (default: a temporary directory in the working directory)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	dir := *workdir
	if dir == "" {
		dir = "."
	}
	tmp, err := os.MkdirTemp(dir, "perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, workdir: tmp})
	if rmErr := os.RemoveAll(tmp); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	okFrac := 1.0
	if out.attempted > 0 {
		okFrac -= float64(out.failed) / float64(out.attempted)
	}
	out.e2e.add("ok_frac", okFrac, "fraction")
	out.e2e.add("max_rss_mb", maxRSSMB(), "MB")
	for _, lm := range layerMetrics {
		if _, ok := out.layer[lm.name]; !ok {
			out.layer.add(lm.name, 0, lm.unit) // not applicable to this workload
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	ms := out.e2e
	if *trace == 1 {
		ms = out.layer
	}
	line, err := json.Marshal(report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
