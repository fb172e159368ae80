package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"slipstream/internal/core"
)

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it. With n samples it
// leaves n - ceil(p*n/100) samples above it, so p99 of 1000 samples keeps
// ten beyond it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle sample, or the mean of the two middle samples
// for an even count. It returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is the SHA-256 of a result's canonical JSON, the identity the
// output checks compare.
func digest(res *core.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// maxRSSMB is the process's peak resident set in MB (getrusage; Linux
// reports kilobytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports as deltas over a timed phase.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: uint64(val(0)),
		gcCycles:   uint64(val(1)),
		gcCPU:      val(2),
		totalCPU:   val(3),
	}
}

// runtimeLayer reports the runtime counters accumulated between two
// snapshots as per-layer metrics.
func runtimeLayer(m metricSet, before, after runtimeSample) {
	m.add("runtime.alloc_mb", float64(after.allocBytes-before.allocBytes)/(1<<20), "MB")
	m.add("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), "count")
	frac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		frac = (after.gcCPU - before.gcCPU) / cpu
	}
	m.add("runtime.gc_cpu_frac", frac, "fraction")
}
