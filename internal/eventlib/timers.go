package eventlib

import (
	"slices"
	"sort"

	"repro/internal/core"
)

// timerList holds a Base's armed timers sorted by (deadline, creation seq) in
// descending order, so the earliest timer is last. A Base arms a handful of
// timers at most (its server's sweep, retry, resume or tick; connection events
// carry no timeout), so shifting the slice costs less than a linked structure.
// Timers pop in exact (deadline, seq) order and MinDeadline is exact, which
// keeps poll timeouts and dispatch batches reproducible (DESIGN.md §12).
type timerList struct {
	evs []*Event
}

// Len reports the number of armed timers.
func (l *timerList) Len() int { return len(l.evs) }

// search returns the index of the first timer that pops no later than ev in
// (deadline, seq) order: ev's own index when it is armed (seq is unique), its
// insertion point otherwise.
func (l *timerList) search(ev *Event) int {
	return sort.Search(len(l.evs), func(i int) bool {
		e := l.evs[i]
		return e.deadline < ev.deadline || (e.deadline == ev.deadline && e.seq <= ev.seq)
	})
}

// Schedule (re)arms ev for the given deadline.
func (l *timerList) Schedule(ev *Event, deadline core.Time) {
	l.Cancel(ev)
	ev.deadline = deadline
	l.evs = slices.Insert(l.evs, l.search(ev), ev)
	ev.armed = true
}

// Cancel disarms ev if armed.
func (l *timerList) Cancel(ev *Event) {
	if !ev.armed {
		return
	}
	i := l.search(ev)
	l.evs = slices.Delete(l.evs, i, i+1)
	ev.armed = false
}

// MinDeadline returns the earliest armed deadline; ok is false when none is.
func (l *timerList) MinDeadline() (core.Time, bool) {
	if len(l.evs) == 0 {
		return 0, false
	}
	return l.evs[len(l.evs)-1].deadline, true
}

// PopExpired pops the earliest timer if it is due at now; nil otherwise.
func (l *timerList) PopExpired(now core.Time) *Event {
	if min, ok := l.MinDeadline(); !ok || min > now {
		return nil
	}
	return l.PopMin()
}

// PopMin removes and returns the earliest timer regardless of time (Close
// drains through it); nil when none is armed.
func (l *timerList) PopMin() *Event {
	n := len(l.evs)
	if n == 0 {
		return nil
	}
	ev := l.evs[n-1]
	l.evs = slices.Delete(l.evs, n-1, n)
	ev.armed = false
	return ev
}
