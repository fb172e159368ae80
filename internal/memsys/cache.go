package memsys

import (
	"fmt"
	"math/bits"
)

// LineState is the coherence state of a cached line. The model merges the
// usual E and M states: Exclusive means this cache holds the only copy and
// may write it (a dirty copy that must be written back when displaced).
type LineState uint8

// Line states.
const (
	Invalid LineState = iota
	Shared
	Exclusive
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	}
	return "?"
}

// Role identifies which slipstream stream issued an access. In single and
// double modes all accesses are RoleNone.
type Role uint8

// Stream roles.
const (
	RoleNone Role = iota
	RoleR         // the full (redundant) task
	RoleA         // the reduced (advanced) task
)

func (r Role) String() string {
	switch r {
	case RoleR:
		return "R"
	case RoleA:
		return "A"
	}
	return "-"
}

// reqRec is an open classification record for one directory request on a
// line (see stats.ReqClass). It is closed and counted when the line's
// residency ends.
type reqRec struct {
	role       Role
	excl       bool
	fillDone   int64
	compDuring bool // companion stream touched while the fill was in flight
	compAfter  bool // companion stream touched after the fill completed
}

// Line is one cache line's metadata. Data is not stored here; all values
// live in the flat functional memory. A Line is 32 bytes and holds no
// pointers, so a machine's frames are one compact array the garbage
// collector never scans.
type Line struct {
	Addr  Addr // line-aligned address, meaningful when State != Invalid
	State LineState

	// Transparent marks an L2 line filled by a transparent reply: a
	// non-coherent copy visible only to the A-stream.
	Transparent bool

	// SIMark is set when the directory sent this (exclusively owned) line
	// a self-invalidation hint; the line is processed at the R-stream's
	// next synchronization point.
	SIMark bool

	// WrittenInCS records that a store touched the line from inside a
	// critical section; SI then treats the line as migratory and fully
	// invalidates it rather than downgrading.
	WrittenInCS bool

	// rec is the line's slot in System.recs holding its open
	// classification records, or 0 when it has none.
	rec int32

	// FillDone is the simulated time the most recent fill completes.
	// Accesses arriving earlier merge with the outstanding fill.
	FillDone int64

	lru int64
}

// Cache is a set-associative cache with LRU replacement. It stores tags
// and coherence metadata only. Set i occupies frames[i*assoc:(i+1)*assoc].
type Cache struct {
	frames    []Line
	assoc     int
	nsets     int
	lineShift uint // log2 of the line size
	// maskSets is set when nsets is a power of two (Table 1's
	// geometries): the set index is then a mask, otherwise a remainder.
	maskSets bool
	clock    int64
}

// NewCache returns a cache of the given total size in bytes, associativity,
// and line size.
func NewCache(size, assoc, lineSize int) *Cache {
	c := newCache(size, assoc, lineSize)
	c.frames = make([]Line, c.nframes())
	return c
}

// newCache returns a cache with its geometry set and no frames yet. The
// line size must be a power of two (Params.Validate checks it).
func newCache(size, assoc, lineSize int) *Cache {
	if lineSize < 1 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("memsys: line size %d is not a power of two", lineSize))
	}
	nsets := size / (assoc * lineSize)
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{assoc: assoc, nsets: nsets, lineShift: uint(bits.TrailingZeros(uint(lineSize)))}
	c.maskSets = nsets&(nsets-1) == 0
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

func (c *Cache) nframes() int { return c.nsets * c.assoc }

func (c *Cache) set(line Addr) []Line {
	n := line >> c.lineShift
	if c.maskSets {
		n &= Addr(c.nsets - 1)
	} else {
		n %= Addr(c.nsets)
	}
	i := int(n) * c.assoc
	return c.frames[i : i+c.assoc : i+c.assoc]
}

// Lookup returns the valid line holding the line-aligned address, or nil.
func (c *Cache) Lookup(line Addr) *Line {
	set := c.set(line)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == line {
			return &set[i]
		}
	}
	return nil
}

// Touch updates LRU state for a line that was just accessed.
func (c *Cache) Touch(l *Line) {
	c.clock++
	l.lru = c.clock
}

// Victim returns the frame to fill for the given line address: an invalid
// way if one exists, otherwise the least recently used valid line (which
// the caller must evict before reuse).
func (c *Cache) Victim(line Addr) *Line {
	set := c.set(line)
	var lru *Line
	for i := range set {
		if set[i].State == Invalid {
			return &set[i]
		}
		if lru == nil || set[i].lru < lru.lru {
			lru = &set[i]
		}
	}
	return lru
}

// Reset invalidates every line and clears metadata (used when a cache is
// reused across runs).
func (c *Cache) Reset() {
	clear(c.frames)
	c.clock = 0
}

// ForEachValid calls fn for every valid line.
func (c *Cache) ForEachValid(fn func(*Line)) {
	for i := range c.frames {
		if c.frames[i].State != Invalid {
			fn(&c.frames[i])
		}
	}
}

// clearLine resets a frame to Invalid, keeping only its LRU state. An L2
// line's classification records must be closed first (closeRecs).
func clearLine(l *Line) {
	*l = Line{lru: l.lru}
}
