package memsys

import (
	"fmt"
	"slices"
	"testing"

	"slipstream/internal/stats"
)

// lineSnapshot captures the globally visible metadata of one line across
// the whole machine: every node's L2 copy and the home directory entry.
type lineSnapshot struct {
	dir DirEntry
	l2  []Line
}

func snapshotLine(sys *System, line Addr) lineSnapshot {
	var snap lineSnapshot
	if e := sys.Home(line).Dir.Peek(line); e != nil {
		snap.dir = *e
	}
	for _, n := range sys.Nodes {
		var l Line
		if l2 := n.L2.Lookup(line); l2 != nil {
			l = *l2
			l.lru = 0 // LRU position is private timing state, not coherence state
		}
		snap.l2 = append(snap.l2, l)
	}
	return snap
}

func (s lineSnapshot) equal(o lineSnapshot) bool {
	if s.dir != o.dir || len(s.l2) != len(o.l2) {
		return false
	}
	for i := range s.l2 {
		a, b := s.l2[i], o.l2[i]
		if a.Addr != b.Addr || a.State != b.State || a.Transparent != b.Transparent ||
			a.SIMark != b.SIMark || a.WrittenInCS != b.WrittenInCS || a.FillDone != b.FillDone {
			return false
		}
	}
	return true
}

// l1hitState names a prepared residency situation for the tested line at
// node 0 / cpu 0.
var l1hitStates = []string{
	"absent", "l2shared", "l2excl", "l1shared", "l1excl",
	"transparent-l2", "transparent-l1",
}

// installL1HitState builds the named situation with a consistent directory.
// Transparent states model a stale copy at node 0 while node 1 owns the
// line exclusively (the only way transparent copies arise).
func installL1HitState(sys *System, state string) {
	line := Addr(0)
	node := sys.Nodes[0]
	e := sys.Home(line).Dir.Entry(line)
	setL2 := func(n *Node, st LineState, transparent bool) *Line {
		l := n.L2.Victim(line)
		l.Addr = line
		l.State = st
		l.Transparent = transparent
		return l
	}
	setL1 := func(st LineState, transparent bool) {
		l := node.CPUs[0].L1.Victim(line)
		l.Addr = line
		l.State = st
		l.Transparent = transparent
	}
	switch state {
	case "absent":
	case "l2shared", "l1shared":
		setL2(node, Shared, false)
		e.State = DirShared
		e.AddSharer(0)
		if state == "l1shared" {
			setL1(Shared, false)
		}
	case "l2excl", "l1excl":
		setL2(node, Exclusive, false)
		e.State = DirExclusive
		e.Owner = 0
		e.Sharers = 1
		if state == "l1excl" {
			setL1(Exclusive, false)
		}
	case "transparent-l2", "transparent-l1":
		setL2(sys.Nodes[1], Exclusive, false)
		e.State = DirExclusive
		e.Owner = 1
		e.Sharers = 1 << 1
		e.AddFuture(0)
		setL2(node, Shared, true)
		if state == "transparent-l1" {
			setL1(Shared, true)
		}
	default:
		panic("unknown state " + state)
	}
}

// machineState is a deep copy of everything an access can change: every
// cache frame and LRU clock, the directory entry of the tested line, and
// every counter.
type machineState struct {
	frames []Line
	clocks []int64
	dir    DirEntry
	ms     stats.MemStats
	tl     stats.TLStats
	si     stats.SIStats
	req    stats.ReqBreakdown
}

func captureMachine(sys *System, line Addr) machineState {
	st := machineState{
		frames: append([]Line(nil), sys.frames...),
		ms:     sys.MS, tl: sys.TL, si: sys.SIst, req: sys.Req,
	}
	for _, n := range sys.Nodes {
		st.clocks = append(st.clocks, n.L2.clock, n.CPUs[0].L1.clock, n.CPUs[1].L1.clock)
	}
	if e := sys.Home(line).Dir.Peek(line); e != nil {
		st.dir = *e
	}
	return st
}

func (st machineState) equal(o machineState) bool {
	return slices.Equal(st.frames, o.frames) && slices.Equal(st.clocks, o.clocks) &&
		st.dir == o.dir && st.ms == o.ms && st.tl == o.tl && st.si == o.si && st.req == o.req
}

// TestIsL1HitDifferential pits IsL1Hit against Access across every
// combination of access kind, stream role, line state, critical-section
// flag, and transparent-request flag: whenever IsL1Hit predicts a private
// hit, Access must charge exactly L1Hit cycles and leave every piece of
// globally visible state (directory, all L2 copies, all counters except
// L1Hits) untouched. This is the contract that lets the runtime simulate
// predicted hits at a skewed local clock.
//
// Every combination also runs AccessL1 on a twin machine: it must hit
// exactly when IsL1Hit predicts one, leave the twin exactly as Access
// leaves the first machine (completion time, counters, every frame and
// LRU clock) when it does, and change nothing at all when it does not.
func TestIsL1HitDifferential(t *testing.T) {
	const issueAt = 1000
	predicted := 0
	for _, state := range l1hitStates {
		for _, kind := range []AccessKind{Read, Write, PrefetchExcl} {
			for _, role := range []Role{RoleNone, RoleR, RoleA} {
				for _, inCS := range []bool{false, true} {
					for _, reqTL := range []bool{false, true} {
						name := fmt.Sprintf("%s/%v/%v/incs=%v/tl=%v", state, kind, role, inCS, reqTL)
						sys, _ := newSys(t, 2)
						twin, _ := newSys(t, 2)
						installL1HitState(sys, state)
						installL1HitState(twin, state)
						req := Req{
							CPU: sys.Nodes[0].CPUs[0], Kind: kind, Addr: 8,
							Role: role, InCS: inCS,
							Transparent: reqTL && kind == Read && role == RoleA,
						}
						twinReq := req
						twinReq.CPU = twin.Nodes[0].CPUs[0]
						pred := sys.IsL1Hit(req)
						twinPre := captureMachine(twin, 0)
						twinDone, hit := twin.AccessL1(twinReq, issueAt)
						if hit != pred {
							t.Errorf("%s: AccessL1 hit = %v, IsL1Hit = %v", name, hit, pred)
						}
						if !pred {
							if !captureMachine(twin, 0).equal(twinPre) {
								t.Errorf("%s: AccessL1 miss changed machine state", name)
							}
							continue
						}
						predicted++
						pre := snapshotLine(sys, 0)
						preMS := sys.MS
						preTL, preSI, preReq := sys.TL, sys.SIst, sys.Req
						done := sys.Access(req, issueAt)
						if got := done - issueAt; got != sys.P.L1Hit {
							t.Errorf("%s: predicted hit took %d cycles, want %d", name, got, sys.P.L1Hit)
						}
						if !snapshotLine(sys, 0).equal(pre) {
							t.Errorf("%s: predicted hit changed directory or L2 state", name)
						}
						wantMS := preMS
						wantMS.L1Hits++
						if sys.MS != wantMS {
							t.Errorf("%s: predicted hit changed MemStats: %+v -> %+v", name, preMS, sys.MS)
						}
						if sys.TL != preTL || sys.SIst != preSI || sys.Req != preReq {
							t.Errorf("%s: predicted hit changed TL/SI/classification counters", name)
						}
						if twinDone != done {
							t.Errorf("%s: AccessL1 completed at %d, Access at %d", name, twinDone, done)
						}
						if !captureMachine(twin, 0).equal(captureMachine(sys, 0)) {
							t.Errorf("%s: AccessL1 and Access left different machine state", name)
						}
					}
				}
			}
		}
	}
	if predicted == 0 {
		t.Fatal("no combination was predicted as a hit; the test is vacuous")
	}
}

// TestIsL1HitPredictions pins the predicate's value for the interesting
// corners, including the regression this PR fixes: an in-CS store to an
// L1-exclusive line completes in L1-hit time but marks the node's shared
// L2 line written-in-CS, so it must NOT be predicted as a private hit.
func TestIsL1HitPredictions(t *testing.T) {
	cases := []struct {
		state string
		kind  AccessKind
		role  Role
		inCS  bool
		want  bool
	}{
		{"absent", Read, RoleNone, false, false},
		{"l2shared", Read, RoleNone, false, false},
		{"l1shared", Read, RoleNone, false, true},
		{"l1shared", Read, RoleNone, true, true}, // reads in CS stay private
		{"l1shared", Write, RoleNone, false, false},
		{"l1excl", Read, RoleR, false, true},
		{"l1excl", Write, RoleR, false, true},
		{"l1excl", Write, RoleR, true, false}, // regression: WrittenInCS leaks to L2
		{"l1excl", Write, RoleA, true, false},
		{"l1excl", PrefetchExcl, RoleA, false, true},
		{"transparent-l1", Read, RoleA, false, true},
		{"transparent-l1", Read, RoleR, false, false}, // invisible to R
		{"transparent-l1", Read, RoleNone, false, false},
		{"transparent-l1", Write, RoleA, false, false},
		{"transparent-l2", Read, RoleA, false, false}, // not in L1
	}
	for _, tc := range cases {
		sys, _ := newSys(t, 2)
		installL1HitState(sys, tc.state)
		req := Req{CPU: sys.Nodes[0].CPUs[0], Kind: tc.kind, Addr: 8, Role: tc.role, InCS: tc.inCS}
		if got := sys.IsL1Hit(req); got != tc.want {
			t.Errorf("IsL1Hit(%s/%v/%v/incs=%v) = %v, want %v",
				tc.state, tc.kind, tc.role, tc.inCS, got, tc.want)
		}
	}
}
