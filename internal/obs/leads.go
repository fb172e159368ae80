package obs

import "sort"

// Lead is the A-stream's arrival lead over its R-stream for one session of
// one task pair: positive means the A-stream reached the session boundary
// first (it is running ahead).
type Lead struct {
	Task    int
	Session int
	Cycles  int64
}

// Leads records, per task and session, when the R-stream and the A-stream
// first reached the session boundary (EvSession; RoleA events are the
// A-stream's, all others the R-stream's). The difference is the A-stream's
// lead, which decides whether its prefetches are timely or late (the
// paper's Figure 7 split). The zero value is ready to use.
type Leads struct {
	r, a map[leadKey]int64
}

type leadKey struct{ task, session int }

// Event implements Observer.
func (l *Leads) Event(e *Event) {
	if e.Kind != EvSession {
		return
	}
	at := &l.r
	if e.Role == RoleA {
		at = &l.a
	}
	if *at == nil {
		*at = make(map[leadKey]int64)
	}
	k := leadKey{e.Task, e.Session}
	if _, ok := (*at)[k]; !ok {
		(*at)[k] = e.Time
	}
}

// Series returns the lead of every session both streams reached, sorted by
// task, then session. Sessions where either stream left no record (e.g.
// after a recovery fast-forwards the A-stream) are skipped.
func (l *Leads) Series() []Lead {
	var out []Lead
	//simlint:ordered keys are unique and out is sorted below
	for k, r := range l.r {
		if a, ok := l.a[k]; ok {
			out = append(out, Lead{Task: k.task, Session: k.session, Cycles: r - a})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Session < out[j].Session
	})
	return out
}

// Mean returns the average lead over Series, or 0 when it is empty.
func (l *Leads) Mean() float64 {
	leads := l.Series()
	if len(leads) == 0 {
		return 0
	}
	var sum int64
	for _, ld := range leads {
		sum += ld.Cycles
	}
	return float64(sum) / float64(len(leads))
}
