package memsys

import (
	"fmt"
	"math/bits"
	"sync"

	"slipstream/internal/obs"
	"slipstream/internal/sim"
	"slipstream/internal/stats"
)

// CPU is one processor of a CMP node, with its private L1 data cache.
type CPU struct {
	ID   int // global processor id: node*2 + slot
	Slot int // 0 or 1 within the node
	Node *Node
	L1   *Cache
}

// Node is one CMP: two processors, a shared unified L2, the node's slice of
// the directory, its network-interface ports, and its directory controller.
type Node struct {
	ID   int
	sys  *System
	CPUs [2]*CPU
	L2   *Cache
	Dir  *Directory

	L2Port sim.Resource // shared L2 port: the two processors contend here
	NIIn   sim.Resource // network interface, incoming messages
	NIOut  sim.Resource // network interface, outgoing messages

	// dcBanks are the directory/memory-controller occupancy banks,
	// interleaved by line address (Params.DCBanks; 1 = Table 1's single
	// occupancy).
	dcBanks []sim.Resource

	siList []Addr // lines with pending self-invalidation hints

	// Window accumulates this node's classified A-stream read requests
	// since the last WindowReset. The adaptive A-R synchronization
	// controller (Section 6 of the paper: varying the scheme dynamically)
	// reads and resets it at session boundaries.
	Window ClassWindow
}

// DC returns the directory-controller bank serving the given line (with
// one bank, the node's single Table 1 occupancy).
func (n *Node) DC(line Addr) *sim.Resource {
	if len(n.dcBanks) == 1 {
		return &n.dcBanks[0]
	}
	return &n.dcBanks[int(line>>n.sys.lineShift)%len(n.dcBanks)]
}

// DCStats sums busy cycles and uses across the node's DC banks.
func (n *Node) DCStats() (busy, uses int64) {
	for i := range n.dcBanks {
		busy += n.dcBanks[i].BusyCycles()
		uses += n.dcBanks[i].Uses()
	}
	return busy, uses
}

// ClassWindow counts a node's recently classified A-stream read requests.
type ClassWindow struct {
	ATimely int64
	ALate   int64
	AOnly   int64
}

// Total returns the number of classified A-stream reads in the window.
func (w *ClassWindow) Total() int64 { return w.ATimely + w.ALate + w.AOnly }

// WindowReset clears the node's classification window.
func (n *Node) WindowReset() { n.Window = ClassWindow{} }

// System is the whole machine: nodes, the interconnect parameters, the flat
// functional memory, and the measurement sinks.
type System struct {
	P   Params
	Eng *sim.Engine
	Mem *Mem

	Nodes []*Node

	// frames backs every cache's lines: one array, recycled by Release.
	frames []Line

	// lineShift is log2 of the line size: a line's number is addr>>lineShift.
	lineShift uint

	// recs is the classification-record slot table: an L2 line with open
	// records (Line.rec != 0) keeps them in recs[Line.rec]. Slot 0 is
	// never used; freeRecs lists closed slots, whose record capacity the
	// next line to open a slot reuses.
	recs     [][]reqRec
	freeRecs []int32

	// Classify enables request classification (Figure 7). It is turned on
	// for slipstream-mode runs, where accesses carry stream roles.
	Classify bool

	// Bus, when non-nil, receives observation events (internal/obs): access
	// start/completion with level classification, coherence-line changes,
	// and end-of-run resource occupancy. It is the sole observation
	// surface — runtime auditing (internal/audit) subscribes here too.
	// Subscribers must only observe and must not retain events: emission
	// reuses the scratch values below, so the unobserved hot path pays one
	// nil test and the observed one allocates nothing.
	Bus *obs.Bus

	// evAccess and evLine are the reused emission scratch events
	// (observedAccess, lineEvent).
	evAccess obs.Event
	evLine   obs.Event

	MS   stats.MemStats
	Req  stats.ReqBreakdown
	TL   stats.TLStats
	SIst stats.SIStats
}

// NewSystem builds a machine from the given parameters.
func NewSystem(eng *sim.Engine, p Params) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		P: p, Eng: eng, Mem: NewMem(p.LineSize),
		lineShift: uint(bits.TrailingZeros(uint(p.LineSize))),
	}
	s.Nodes = make([]*Node, p.Nodes)
	var caches []*Cache
	for i := range s.Nodes {
		n := &Node{
			ID:      i,
			sys:     s,
			L2:      newCache(p.L2Size, p.L2Assoc, p.LineSize),
			Dir:     NewDirectory(),
			dcBanks: make([]sim.Resource, p.DCBanks),
		}
		caches = append(caches, n.L2)
		for slot := 0; slot < 2; slot++ {
			n.CPUs[slot] = &CPU{
				ID:   i*2 + slot,
				Slot: slot,
				Node: n,
				L1:   newCache(p.L1Size, p.L1Assoc, p.LineSize),
			}
			caches = append(caches, n.CPUs[slot].L1)
		}
		s.Nodes[i] = n
	}
	total := 0
	for _, c := range caches {
		total += c.nframes()
	}
	s.frames, s.recs = takeSpare(total)
	off := 0
	for _, c := range caches {
		n := c.nframes()
		c.frames = s.frames[off : off+n : off+n]
		off += n
	}
	return s, nil
}

// spare holds the frame array and record slot table of the last released
// system. At the paper's geometry a machine has ~4.5 MB of frames (32-byte
// lines, pointer-free, so never scanned) and a slipstream run opens tens of
// thousands of record slots; handing both from one run to the next keeps
// back-to-back runs from allocating, and the GC from collecting, that much
// per run. Keeping one machine's worth bounds what an idle process holds.
//
//simlint:ignore sharedstate guarded by its mutex, and takeSpare zeroes the frames and empties the slot table before reuse, so no run sees another's lines or records
var spare struct {
	sync.Mutex
	frames []Line
	recs   [][]reqRec
}

// takeSpare returns n zeroed frames and an empty record slot table (slot 0
// reserved), reusing the spare's when its frame array is large enough. A
// reused table keeps its slots' record capacity for takeRecSlot.
func takeSpare(n int) ([]Line, [][]reqRec) {
	spare.Lock()
	f, recs := spare.frames, spare.recs
	if cap(f) < n {
		spare.Unlock()
		return make([]Line, n), make([][]reqRec, 1)
	}
	spare.frames, spare.recs = nil, nil
	spare.Unlock()
	f = f[:n]
	clear(f)
	return f, recs[:1]
}

// Release hands the system's cache frames and record slot table to a later
// NewSystem. The system must not be used afterwards; its caches no longer
// hold frames.
func (s *System) Release() {
	if s.frames == nil {
		return
	}
	f := s.frames
	s.frames = nil
	for _, n := range s.Nodes {
		n.L2.frames = nil
		for _, cpu := range n.CPUs {
			cpu.L1.frames = nil
		}
	}
	spare.Lock()
	spare.frames, spare.recs = f, s.recs
	spare.Unlock()
	s.recs, s.freeRecs = nil, nil
}

// CPUByID returns the processor with the given global id.
func (s *System) CPUByID(id int) *CPU {
	return s.Nodes[id/2].CPUs[id%2]
}

// Home returns the home node of a line-aligned address. Lines are
// interleaved round-robin across nodes.
func (s *System) Home(line Addr) *Node {
	return s.Nodes[int(line>>s.lineShift)%len(s.Nodes)]
}

// Finalize closes all open classification records (end of run counts as the
// end of every line's residency) and reports end-of-run resource occupancy
// to the bus. Runs that opened no records (every run without
// classification) skip the scan of the L2 frames.
func (s *System) Finalize() {
	if s.openRecs() > 0 {
		for _, n := range s.Nodes {
			n := n
			n.L2.ForEachValid(func(l *Line) { s.closeRecs(n, l) })
		}
	}
	if s.Bus == nil {
		return
	}
	now := s.Eng.Now()
	for _, n := range s.Nodes {
		s.emitResource(now, fmt.Sprintf("node%d/l2port", n.ID), n.L2Port.BusyCycles(), n.L2Port.Uses())
		s.emitResource(now, fmt.Sprintf("node%d/ni-in", n.ID), n.NIIn.BusyCycles(), n.NIIn.Uses())
		s.emitResource(now, fmt.Sprintf("node%d/ni-out", n.ID), n.NIOut.BusyCycles(), n.NIOut.Uses())
		busy, uses := n.DCStats()
		s.emitResource(now, fmt.Sprintf("node%d/dc", n.ID), busy, uses)
	}
}

func (s *System) emitResource(now int64, name string, busy, uses int64) {
	s.Bus.Emit(&obs.Event{
		Kind: obs.EvResource, Time: now, Dur: busy, Count: uses,
		Task: -1, CPU: -1, Note: name,
	})
}

// String summarizes the configuration.
func (s *System) String() string {
	return fmt.Sprintf("memsys: %d CMP nodes, L1 %dKB/%d-way, L2 %dKB/%d-way, line %dB",
		s.P.Nodes, s.P.L1Size>>10, s.P.L1Assoc, s.P.L2Size>>10, s.P.L2Assoc, s.P.LineSize)
}

// --- classification bookkeeping (Figure 7) ---

// openRecs returns the number of record slots in use.
func (s *System) openRecs() int { return len(s.recs) - 1 - len(s.freeRecs) }

// addRec opens a classification record on an L2 line for a request that
// reached the directory.
func (s *System) addRec(l *Line, role Role, excl bool, fillDone int64) {
	if !s.Classify || role == RoleNone {
		return
	}
	if l.rec == 0 {
		l.rec = s.takeRecSlot()
	}
	//simlint:ignore hotpathalloc slot capacity is reused after closeRecs frees the slot
	s.recs[l.rec] = append(s.recs[l.rec], reqRec{role: role, excl: excl, fillDone: fillDone})
}

// takeRecSlot returns an empty record slot, reusing a freed one first, then
// one a recycled table (takeSpare) holds beyond its length.
func (s *System) takeRecSlot() int32 {
	if n := len(s.freeRecs); n > 0 {
		slot := s.freeRecs[n-1]
		s.freeRecs = s.freeRecs[:n-1]
		return slot
	}
	n := len(s.recs)
	if n < cap(s.recs) {
		s.recs = s.recs[:n+1]
		s.recs[n] = s.recs[n][:0]
	} else {
		//simlint:ignore hotpathalloc the slot table grows to the peak number of lines with open records, once per process when recycled
		s.recs = append(s.recs, nil)
	}
	return int32(n)
}

// recordTouch notes that the given stream referenced the line at time t,
// updating open records of the companion stream.
func (s *System) recordTouch(l *Line, role Role, t int64) {
	if l.rec == 0 || role == RoleNone {
		return
	}
	recs := s.recs[l.rec]
	for i := range recs {
		r := &recs[i]
		if r.role == role {
			continue
		}
		if t < r.fillDone {
			r.compDuring = true
		} else {
			r.compAfter = true
		}
	}
}

// closeRecs classifies and drops all open records on a line. Called when
// the line's residency at node ends (eviction, invalidation, or end of
// run). A-stream read outcomes also feed the node's adaptive window.
func (s *System) closeRecs(node *Node, l *Line) {
	if l.rec == 0 {
		return
	}
	recs := s.recs[l.rec]
	for _, r := range recs {
		var c stats.ReqClass
		switch {
		case r.role == RoleA && r.compDuring:
			c = stats.ALate
		case r.role == RoleA && r.compAfter:
			c = stats.ATimely
		case r.role == RoleA:
			c = stats.AOnly
		case r.compDuring:
			c = stats.RLate
		case r.compAfter:
			c = stats.RTimely
		default:
			c = stats.ROnly
		}
		if r.excl {
			s.Req.AddExclusive(c)
		} else {
			s.Req.AddRead(c)
			switch c {
			case stats.ATimely:
				node.Window.ATimely++
			case stats.ALate:
				node.Window.ALate++
			case stats.AOnly:
				node.Window.AOnly++
			}
		}
	}
	s.recs[l.rec] = recs[:0] // keep capacity: the slot's next user reuses it
	//simlint:ignore hotpathalloc the free list is bounded by the slot table
	s.freeRecs = append(s.freeRecs, l.rec)
	l.rec = 0
}
