package obs

import "testing"

func session(l *Leads, time int64, task, sess int, role Role) {
	l.Event(&Event{Kind: EvSession, Time: time, Task: task, Session: sess, Role: role})
}

func TestLeadSeries(t *testing.T) {
	l := &Leads{}
	// Task 0: A reaches session boundaries 0 and 1 ahead of R by 100 and 250.
	session(l, 900, 0, 0, RoleA)
	session(l, 1000, 0, 0, RoleR)
	session(l, 1750, 0, 1, RoleA)
	session(l, 2000, 0, 1, RoleR)
	// Task 1: A behind by 50 in session 0; session 1 has no A record.
	session(l, 1050, 1, 0, RoleA)
	session(l, 1000, 1, 0, RoleR)
	session(l, 2000, 1, 1, RoleR)
	// Other kinds are ignored.
	l.Event(&Event{Kind: EvBarrier, Time: 5, Task: 1, Session: 1, Role: RoleA})

	leads := l.Series()
	want := []Lead{
		{Task: 0, Session: 0, Cycles: 100},
		{Task: 0, Session: 1, Cycles: 250},
		{Task: 1, Session: 0, Cycles: -50},
	}
	if len(leads) != len(want) {
		t.Fatalf("leads = %v, want %v", leads, want)
	}
	for i := range want {
		if leads[i] != want[i] {
			t.Fatalf("leads[%d] = %v, want %v", i, leads[i], want[i])
		}
	}
	if got, want := l.Mean(), 100.0; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if got := (&Leads{}).Mean(); got != 0 {
		t.Fatalf("empty Mean = %v, want 0", got)
	}
}

func TestLeadSeriesUsesFirstArrival(t *testing.T) {
	l := &Leads{}
	// Duplicate session records (e.g. after a refork): the first wins.
	session(l, 500, 0, 0, RoleA)
	session(l, 800, 0, 0, RoleA)
	session(l, 1000, 0, 0, RoleR)
	session(l, 1200, 0, 0, RoleR)
	leads := l.Series()
	if len(leads) != 1 || leads[0].Cycles != 500 {
		t.Fatalf("leads = %v", leads)
	}
}
