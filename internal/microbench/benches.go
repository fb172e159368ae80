package microbench

import (
	"testing"

	"slipstream/internal/memsys"
	"slipstream/internal/obs"
	"slipstream/internal/sim"
)

// Benchmark sinks. Results accumulate here so the compiler cannot discard
// the measured work.
var (
	sinkInt  int
	sinkTime int64
)

// All returns the registered hot-path benchmarks in report order.
func All() []Benchmark {
	return []Benchmark{
		{Name: "sim/queue/heap/hold", Fn: benchQueueHold(sim.QueueHeap)},
		{Name: "sim/queue/calendar/hold", Fn: benchQueueHold(sim.QueueCalendar)},
		{Name: "sim/engine/step", Fn: benchEngineStep},
		{Name: "sim/proc/switch", Fn: benchProcSwitch},
		{Name: "memsys/dir/lookup", Fn: benchDirLookup},
		{Name: "memsys/dir/sharer-scan", Fn: benchSharerScan},
		{Name: "memsys/l1/read-hit", Fn: benchL1ReadHit},
		{Name: "memsys/l1/private-hit", Fn: benchL1PrivateHit},
		{Name: "memsys/l2/read-hit", Fn: benchL2ReadHit},
		{Name: "memsys/dir/write-pingpong", Fn: benchDirWritePingPong},
		{Name: "obs/emit-access", Fn: benchObsEmitAccess},
	}
}

// holdPending is the steady-state event population of the queue benchmarks:
// large enough to exercise bucket/heap structure, small next to a real
// run's queue depth.
const holdPending = 256

// benchQueueHold is the classic "hold" queue benchmark through the engine
// API: a fixed population of self-rescheduling events, so every Step is one
// pop plus one push at a pseudo-random future time. The two queue kinds run
// the identical workload; their ns/op difference is the scheduler swap.
func benchQueueHold(kind sim.QueueKind) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		eng := sim.NewEngineQueue(kind)
		rng := uint64(1)
		var fn func()
		fn = func() {
			// Deterministic LCG; delays 1..64 cycles spread events across
			// calendar days the way simulator wakeups do.
			rng = rng*6364136223846793005 + 1442695040888963407
			eng.After(int64(rng>>58)+1, fn)
		}
		for i := 0; i < holdPending; i++ {
			eng.After(int64(i%64)+1, fn)
		}
		for i := 0; i < 4*holdPending; i++ { // warm to steady state
			eng.Step()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	}
}

// benchEngineStep measures the engine's bare dispatch loop — pop, clock
// advance, monitor nil-check, callback — with a single self-rescheduling
// event, the minimal inner-loop iteration. Steady state must be
// zero-alloc (asserted by TestEngineStepZeroAlloc and the committed
// report).
func benchEngineStep(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	var fn func()
	fn = func() { eng.After(1, fn) }
	eng.After(1, fn)
	for i := 0; i < 64; i++ { // warm the calendar's bucket storage
		eng.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// benchProcSwitch measures process dispatch: two processes ping with
// Delay(1), so every Step resumes one coroutine and returns when it
// yields back. Steady state must be zero-alloc (asserted by
// TestProcSwitchZeroAlloc).
func benchProcSwitch(b *testing.B) {
	b.ReportAllocs()
	eng := newProcPing()
	defer eng.Release()
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// newProcPing returns an engine running two processes that each wait one
// cycle forever; the caller releases them.
func newProcPing() *sim.Engine {
	eng := sim.NewEngine()
	for _, name := range []string{"ping", "pong"} {
		eng.Go(name, func(p *sim.Proc) {
			for {
				p.Delay(1)
			}
		})
	}
	return eng
}

// benchDirLookup measures home-directory entry lookup over a populated
// directory, the first step of every L2 miss.
func benchDirLookup(b *testing.B) {
	b.ReportAllocs()
	const lines = 4096
	d := memsys.NewDirectory()
	for i := 0; i < lines; i++ {
		e := d.Entry(memsys.Addr(i * 64))
		e.State = memsys.DirShared
		e.AddSharer(i % 8)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		e := d.Peek(memsys.Addr((i & (lines - 1)) * 64))
		n += int(e.State)
	}
	sinkInt += n
}

// benchSharerScan measures sharer-set iteration, the inner loop of
// invalidation fan-out and write-back collection.
func benchSharerScan(b *testing.B) {
	b.ReportAllocs()
	masks := [4]uint64{0x1, 0x8421, 0xffff, 0xfedcba9876543210}
	var e memsys.DirEntry
	n := 0
	visit := func(node int) { n += node }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Sharers = masks[i&3]
		e.ForEachSharer(visit)
	}
	sinkInt += n
}

// benchL1ReadHit measures an L1 read hit through the general Access path,
// with no bus attached: the lookup, LRU touch, and latency add every
// caller of Access pays. The core's private-hit path is
// memsys/l1/private-hit.
func benchL1ReadHit(b *testing.B) {
	b.ReportAllocs()
	s, err := memsys.NewSystem(sim.NewEngine(), memsys.DefaultParams(1))
	if err != nil {
		b.Fatal(err)
	}
	req := memsys.Req{CPU: s.CPUByID(0), Kind: memsys.Read, Addr: 0x40}
	now := s.Access(req, 0) // fill the line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = s.Access(req, now)
	}
	sinkTime += now
}

// newPrivateHit returns a one-node machine and a read request whose line is
// resident in the processor's L1, with the time the fill completed.
func newPrivateHit() (*memsys.System, memsys.Req, int64, error) {
	s, err := memsys.NewSystem(sim.NewEngine(), memsys.DefaultParams(1))
	if err != nil {
		return nil, memsys.Req{}, 0, err
	}
	req := memsys.Req{CPU: s.CPUByID(0), Kind: memsys.Read, Addr: 0x40}
	return s, req, s.Access(req, 0), nil
}

// benchL1PrivateHit measures the core's private-hit path: AccessL1 on a
// resident line, one L1 probe that both decides the hit and charges it,
// with no bus attached.
func benchL1PrivateHit(b *testing.B) {
	b.ReportAllocs()
	s, req, now, err := newPrivateHit()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, _ = s.AccessL1(req, now)
	}
	sinkTime += now
}

// benchL2ReadHit measures an L1 miss satisfied by the node's shared L2: the
// L2 port reservation and hit latency path. The working set (256 lines)
// overflows a shrunken L1 but sits entirely in L2.
func benchL2ReadHit(b *testing.B) {
	b.ReportAllocs()
	p := memsys.DefaultParams(1)
	p.L1Size = 4 << 10 // 64 lines: every wrapped revisit misses L1
	s, err := memsys.NewSystem(sim.NewEngine(), p)
	if err != nil {
		b.Fatal(err)
	}
	const lines = 256
	req := memsys.Req{CPU: s.CPUByID(0), Kind: memsys.Read}
	var now int64
	for i := 0; i < lines; i++ { // fill L2
		req.Addr = memsys.Addr(i * 64)
		now = s.Access(req, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Addr = memsys.Addr((i % lines) * 64)
		now = s.Access(req, now)
	}
	sinkTime += now
}

// benchDirWritePingPong measures a full directory transaction per
// iteration: two nodes alternately writing one line, so every access is an
// L2 miss, a home-directory transaction, and an invalidation of the other
// node's copy.
func benchDirWritePingPong(b *testing.B) {
	b.ReportAllocs()
	s, err := memsys.NewSystem(sim.NewEngine(), memsys.DefaultParams(2))
	if err != nil {
		b.Fatal(err)
	}
	cpus := [2]*memsys.CPU{s.CPUByID(0), s.CPUByID(2)} // one per node
	req := memsys.Req{Kind: memsys.Write, Addr: 0x80}
	var now int64
	for i := 0; i < 2; i++ { // establish the ping-pong
		req.CPU = cpus[i&1]
		now = s.Access(req, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.CPU = cpus[i&1]
		now = s.Access(req, now)
	}
	sinkTime += now
}

// nopObserver subscribes to the bus and discards events, isolating
// emission cost from observer work.
type nopObserver struct{}

func (nopObserver) Event(*obs.Event) {}

// benchObsEmitAccess measures the observed-access emission fast path: the
// same L1 read hit as memsys/l1/read-hit, plus bus emission of the
// start and classified completion events. The delta between the two
// benchmarks is the cost of observation; steady state must be zero-alloc
// (scratch-event reuse, asserted by TestObsEmitZeroAlloc).
func benchObsEmitAccess(b *testing.B) {
	b.ReportAllocs()
	s, err := memsys.NewSystem(sim.NewEngine(), memsys.DefaultParams(1))
	if err != nil {
		b.Fatal(err)
	}
	s.Bus = obs.NewBus(nopObserver{})
	req := memsys.Req{CPU: s.CPUByID(0), Kind: memsys.Read, Addr: 0x40}
	now := s.Access(req, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = s.Access(req, now)
	}
	sinkTime += now
}
