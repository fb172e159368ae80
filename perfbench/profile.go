package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Modules of the CPU roll-up. Every sample lands in exactly one.
var modules = []string{
	"runtime_sched", "runtime_gc", "runtime_other",
	"sim", "memsys", "core", "kernels", "obs",
	"runcache", "service", "json", "net_http", "other",
}

// packageModules maps package-path prefixes to modules. A prefix matches
// the package itself and every package below it.
var packageModules = []struct{ prefix, module string }{
	{"slipstream/internal/sim", "sim"},
	{"slipstream/internal/memsys", "memsys"},
	{"slipstream/internal/core", "core"},
	{"slipstream/internal/stats", "core"},
	{"slipstream/internal/kernels", "kernels"},
	{"slipstream/internal/obs", "obs"},
	{"slipstream/internal/audit", "obs"},
	{"slipstream/internal/trace", "obs"},
	{"slipstream/internal/runcache", "runcache"},
	{"slipstream/internal/service", "service"},
	{"slipstream/internal/runspec", "service"},
	{"encoding/json", "json"},
	{"net", "net_http"}, // net, net/http, net/textproto, net/url, ...
	{"vendor/golang.org/x/net", "net_http"},
	{"mime", "net_http"},
}

// Runtime functions of the scheduler, goroutine hand-off and blocking
// (channels, select, parking, futexes, timers, netpoll), and of the
// garbage collector, matched by prefix on the name after "runtime.".
var (
	schedPrefixes = []string{
		"schedule", "findRunnable", "findrunnable", "park_m", "gopark", "goready", "ready",
		"runq", "globrunq", "stealWork", "checkTimers", "mcall", "gogo", "gosched", "Gosched",
		"goexit", "newproc", "wakep", "startm", "stopm", "handoffp", "acquirep", "releasep",
		"resetspinning", "injectglist", "execute", "casgstatus", "chan", "closechan", "recv",
		"send", "select", "block", "sema", "note", "futex", "lock", "unlock", "osyield",
		"procyield", "usleep", "netpoll", "nanotime", "mPark", "sysmon", "retake", "preempt",
		"asyncPreempt", "mstart", "exitsyscall", "entersyscall", "reentersyscall", "dropg",
		"pidle", "timeSleep", "runOneTimer", "runtimer", "wakeNetPoller", "acquireSudog",
		"releaseSudog", "parkunlock", "selparkcommit", "chanparkcommit", "gcstopm", "notetsleep",
		"(*waitq)", "(*hchan)", "(*timer)", "(*timers)", "(*mLockProfile)", "(*gQueue)", "(*randomEnum)",
		"(*guintptr)", "(*muintptr)", "(*puintptr)",
	}
	gcPrefixes = []string{
		"gc", "bgsweep", "bgscavenge", "sweep", "scan", "markroot", "markBits", "greyobject",
		"findObject", "heapBits", "wbBuf", "shade", "typePointers", "bulkBarrier", "scavenge",
		"(*gcWork)", "(*gcControllerState)", "(*gcCPULimiterState)", "(*gcBits", "(*mspan).sweep",
		"(*mspan).typePointers", "(*mspan).markBits", "(*mspan).heapBits", "(*sweepLocked)",
		"(*activeSweep)", "(*mheap).reclaim", "(*markBits)", "(*scavengerState)",
		"(*pageAlloc).scav", "(*typePointers)", "(*wbBuf)", "(*sweepClass)", "(*gcWorkProducer)",
	}
)

// packageOf returns the package path of a symbol name such as
// "slipstream/internal/memsys.(*Cache).Lookup" or "sort.Ints": everything
// up to the first dot after the last slash, ignoring type arguments.
func packageOf(fn string) string {
	name := fn
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

func hasPathPrefix(p, prefix string) bool {
	return p == prefix || strings.HasPrefix(p, prefix+"/")
}

// classify returns the module of one function, or "" when the function
// is a standard-library helper whose cost belongs to its caller.
func classify(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime" && strings.HasPrefix(fn, "runtime."):
		name := strings.TrimPrefix(fn, "runtime.")
		for _, p := range schedPrefixes {
			if strings.HasPrefix(name, p) {
				return "runtime_sched"
			}
		}
		for _, p := range gcPrefixes {
			if strings.HasPrefix(name, p) {
				return "runtime_gc"
			}
		}
		return "runtime_other"
	case pkg == "internal/runtime/syscall":
		return "" // raw system calls belong to the I/O layer above them
	case hasPathPrefix(pkg, "runtime"), hasPathPrefix(pkg, "internal/runtime"):
		return "runtime_other"
	case pkg == "sync":
		return "runtime_sched"
	case pkg == "slipstream": // the root package: slipstream.Run
		return "core"
	}
	best, module := "", ""
	for _, pm := range packageModules {
		if hasPathPrefix(pkg, pm.prefix) && len(pm.prefix) > len(best) {
			best, module = pm.prefix, pm.module
		}
	}
	if module != "" {
		return module
	}
	// Standard-library packages have no dot in their first path element;
	// anything else unlisted (the benchmark itself, main) is "other".
	if first, _, _ := strings.Cut(pkg, "/"); strings.Contains(first, ".") || pkg == "main" || pkg == "" {
		return "other"
	}
	return ""
}

// attribute returns the module a sample's stack (leaf first) is charged
// to: that of the innermost function with a module, so standard-library
// helpers (syscall, sort, reflect, crypto, ...) count toward the layer
// that called them.
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := classify(fn); m != "" {
			return m
		}
	}
	return "other"
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// module's share of the samples.
func profileShares(r io.Reader) (map[string]float64, error) {
	stacks, weights, err := decodeProfile(r)
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	shares := make(map[string]float64, len(modules))
	var total int64
	for i, st := range stacks {
		shares[attribute(st)] += float64(weights[i])
		total += weights[i]
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= float64(total)
		}
	}
	return shares, nil
}

// addShares reports every module's share as cpu.<module>_frac.
func addShares(m metricSet, shares map[string]float64) {
	for _, mod := range modules {
		m.add("cpu."+mod+"_frac", shares[mod], "fraction")
	}
}

// decodeProfile reads the parts of a pprof profile (profile.proto) the
// roll-up needs: each sample's stack as function names, leaf first with
// inlined frames expanded, and its first value (the sample count).
//
// The standard library's profile parser is internal and the module may
// depend on nothing outside the repository, so the few fields needed are
// decoded here. This keeps the traced run one process that needs no
// toolchain at run time, and reads the stable protobuf format rather than
// the text that `go tool pprof` prints for people.
func decodeProfile(r io.Reader) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := varints(w, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(w, v, b)
					if first && len(vals) > 0 {
						s.weight, first = int64(vals[0]), false
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		weights[i] = s.weight
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				si, ok := funcNames[fid]
				if !ok || si < 0 || si >= int64(len(strs)) {
					return nil, nil, fmt.Errorf("sample %d: bad function %d", i, fid)
				}
				stacks[i] = append(stacks[i], strs[si])
			}
		}
	}
	return stacks, weights, nil
}

// walkFields calls fn for every field of a protobuf message: varint
// fields with their value, length-delimited ones with their bytes.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints returns the values of a repeated integer field, packed (wire
// type 2) or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
