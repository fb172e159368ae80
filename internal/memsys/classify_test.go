package memsys

import (
	"testing"

	"slipstream/internal/stats"
)

// classifySys returns a 4-node system with request classification enabled.
func classifySys(t *testing.T) *System {
	t.Helper()
	s, _ := newSys(t, 4)
	s.Classify = true
	return s
}

func TestClassifyATimely(t *testing.T) {
	s := classifySys(t)
	line := addrHomedAt(s, 2)
	nodeA := s.Nodes[0].CPUs[1]
	nodeR := s.Nodes[0].CPUs[0]

	// A fetches; R touches well after the fill completes.
	dA := s.Access(Req{CPU: nodeA, Kind: Read, Addr: line, Role: RoleA}, 0)
	s.Access(Req{CPU: nodeR, Kind: Read, Addr: line, Role: RoleR}, dA+1000)
	s.Finalize()
	if s.Req.Reads[stats.ATimely] != 1 {
		t.Fatalf("reads = %v, want one A-Timely", s.Req.Reads)
	}
}

func TestClassifyALate(t *testing.T) {
	s := classifySys(t)
	line := addrHomedAt(s, 2)
	nodeA := s.Nodes[0].CPUs[1]
	nodeR := s.Nodes[0].CPUs[0]

	// A fetches; R arrives while the (290-cycle) fill is outstanding.
	s.Access(Req{CPU: nodeA, Kind: Read, Addr: line, Role: RoleA}, 0)
	s.Access(Req{CPU: nodeR, Kind: Read, Addr: line, Role: RoleR}, 50)
	s.Finalize()
	if s.Req.Reads[stats.ALate] != 1 {
		t.Fatalf("reads = %v, want one A-Late", s.Req.Reads)
	}
	if s.MS.MergedFills != 1 {
		t.Fatalf("merged fills = %d, want 1", s.MS.MergedFills)
	}
}

func TestClassifyAOnly(t *testing.T) {
	s := classifySys(t)
	line := addrHomedAt(s, 2)
	nodeA := s.Nodes[0].CPUs[1]

	// A fetches; a remote writer invalidates before R ever touches it.
	dA := s.Access(Req{CPU: nodeA, Kind: Read, Addr: line, Role: RoleA}, 0)
	s.Access(Req{CPU: s.Nodes[3].CPUs[0], Kind: Write, Addr: line, Role: RoleR}, dA+1000)
	s.Finalize()
	if s.Req.Reads[stats.AOnly] != 1 {
		t.Fatalf("reads = %v, want one A-Only", s.Req.Reads)
	}
}

func TestClassifyROnlyAndRTimely(t *testing.T) {
	s := classifySys(t)
	lineA := addrHomedAt(s, 2)
	lineB := lineA + Addr(s.P.LineSize*16)
	nodeA := s.Nodes[0].CPUs[1]
	nodeR := s.Nodes[0].CPUs[0]

	// R fetches lineA; A never touches it -> R-Only.
	s.Access(Req{CPU: nodeR, Kind: Read, Addr: lineA, Role: RoleR}, 0)
	// R fetches lineB; A touches later -> R-Timely.
	dR := s.Access(Req{CPU: nodeR, Kind: Read, Addr: lineB, Role: RoleR}, 1000)
	s.Access(Req{CPU: nodeA, Kind: Read, Addr: lineB, Role: RoleA}, dR+1000)
	s.Finalize()
	if s.Req.Reads[stats.ROnly] != 1 || s.Req.Reads[stats.RTimely] != 1 {
		t.Fatalf("reads = %v, want one R-Only and one R-Timely", s.Req.Reads)
	}
}

func TestClassifyExclusivePrefetch(t *testing.T) {
	s := classifySys(t)
	line := addrHomedAt(s, 2)
	nodeA := s.Nodes[0].CPUs[1]
	nodeR := s.Nodes[0].CPUs[0]

	// A's exclusive prefetch, then R's store after the fill: A-Timely
	// exclusive.
	dA := s.Access(Req{CPU: nodeA, Kind: PrefetchExcl, Addr: line, Role: RoleA}, 0)
	s.Access(Req{CPU: nodeR, Kind: Write, Addr: line, Role: RoleR}, dA+500)
	s.Finalize()
	if s.Req.Exclusives[stats.ATimely] != 1 {
		t.Fatalf("exclusives = %v, want one A-Timely", s.Req.Exclusives)
	}
	if s.Req.TotalReads() != 0 {
		t.Fatalf("reads = %v, want none", s.Req.Reads)
	}
}

func TestClassificationDisabledByDefault(t *testing.T) {
	s, _ := newSys(t, 4)
	line := addrHomedAt(s, 2)
	s.Access(Req{CPU: s.Nodes[0].CPUs[0], Kind: Read, Addr: line, Role: RoleR}, 0)
	s.Finalize()
	if s.Req.TotalReads() != 0 {
		t.Fatal("classification recorded while disabled")
	}
}

func TestClassifyTransparentThenRRefetch(t *testing.T) {
	s := classifySys(t)
	line := addrHomedAt(s, 2)
	producer := s.Nodes[3].CPUs[0]
	nodeA := s.Nodes[0].CPUs[1]
	nodeR := s.Nodes[0].CPUs[0]

	s.Access(Req{CPU: producer, Kind: Write, Addr: line, Role: RoleR}, 0)
	dA := s.Access(Req{CPU: nodeA, Kind: Read, Addr: line, Role: RoleA, Transparent: true}, 1000)
	// R touches after the transparent fill: the A request is counted
	// A-Timely (the data was referenced by R) even though R refetches.
	s.Access(Req{CPU: nodeR, Kind: Read, Addr: line, Role: RoleR}, dA+1000)
	s.Finalize()
	if s.Req.Reads[stats.ATimely] != 1 {
		t.Fatalf("reads = %v, want A-Timely for the transparent fetch", s.Req.Reads)
	}
	// R's own refetch is R-Only here (A never touched the refetched copy).
	if s.Req.Reads[stats.ROnly] != 1 {
		t.Fatalf("reads = %v, want R-Only for the refetch", s.Req.Reads)
	}
}

// TestRecordSlotsRecycle pins the classification-record slot table: a line
// opens a slot at its first record, closing the line's residency frees the
// slot and clears Line.rec, a later line reuses the freed slot, and
// Finalize closes whatever is still open.
func TestRecordSlotsRecycle(t *testing.T) {
	s := classifySys(t)
	line := addrHomedAt(s, 2)
	other := line + Addr(len(s.Nodes)*s.P.LineSize) // same home, different line
	a, r := s.Nodes[0].CPUs[1], s.Nodes[0].CPUs[0]

	s.Access(Req{CPU: a, Kind: Read, Addr: line, Role: RoleA}, 0)
	l2 := s.Nodes[0].L2.Lookup(line)
	if l2 == nil || l2.rec == 0 || s.openRecs() != 1 {
		t.Fatalf("after an A-stream miss: rec = %v, open slots = %d; want one slot", l2, s.openRecs())
	}
	slot := l2.rec
	// A remote write ends the residency: the record closes (A-Only) and
	// the slot is freed. (An unroled writer opens no record of its own.)
	s.Access(Req{CPU: s.Nodes[3].CPUs[0], Kind: Write, Addr: line, Role: RoleNone}, 1000)
	if s.openRecs() != 0 || s.Req.Reads[stats.AOnly] != 1 {
		t.Fatalf("after invalidation: open slots = %d, reads = %v; want 0 and one A-Only", s.openRecs(), s.Req.Reads)
	}
	// The next record reuses the freed slot rather than growing the table.
	s.Access(Req{CPU: a, Kind: Read, Addr: other, Role: RoleA}, 2000)
	if l := s.Nodes[0].L2.Lookup(other); l == nil || l.rec != slot || len(s.recs) != 2 {
		t.Fatalf("second line: rec = %v, table size %d; want slot %d reused", l, len(s.recs), slot)
	}
	s.Access(Req{CPU: r, Kind: Read, Addr: other, Role: RoleR}, 10000)
	s.Finalize()
	if s.openRecs() != 0 || s.Req.Reads[stats.ATimely] != 1 {
		t.Fatalf("after Finalize: open slots = %d, reads = %v; want 0 and one A-Timely", s.openRecs(), s.Req.Reads)
	}
	if l := s.Nodes[0].L2.Lookup(other); l == nil || l.rec != 0 {
		t.Fatalf("Finalize left rec = %v, want 0", l)
	}
}

// TestUnclassifiedRunsOpenNoSlots pins that runs without classification
// (single and double modes) never open a record slot, which is what lets
// Finalize skip its L2 scan.
func TestUnclassifiedRunsOpenNoSlots(t *testing.T) {
	s, _ := newSys(t, 4)
	line := addrHomedAt(s, 2)
	s.Access(Req{CPU: s.Nodes[0].CPUs[0], Kind: Read, Addr: line, Role: RoleR}, 0)
	s.Access(Req{CPU: s.Nodes[1].CPUs[0], Kind: Write, Addr: line, Role: RoleR}, 1000)
	if len(s.recs) != 1 || s.openRecs() != 0 {
		t.Fatalf("unclassified accesses opened record slots: %v", s.recs)
	}
	s.Finalize()
	if s.Req != (stats.ReqBreakdown{}) {
		t.Fatalf("Finalize classified requests without classification: %+v", s.Req)
	}
}
