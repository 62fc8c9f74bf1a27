// The event loop. See the package comment (time.go) for the design
// contract: the 4-ary value heap is a wall-clock optimization with zero
// effect on simulated time.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// event is a scheduled callback. Events with equal timestamps fire in the
// order they were scheduled (seq breaks ties), which keeps runs
// deterministic. Stored by value in the heap slice — never individually
// heap-allocated. A callback is either fn, or argFn applied to arg: the
// arg-carrying form lets repeat schedulers (TCP's retransmit and
// delayed-ACK timers) use one bound method per connection plus a
// generation number in the event, instead of allocating a fresh closure
// per arming.
type event struct {
	at    Time
	seq   uint64
	arg   uint64
	name  string
	fn    func()
	argFn func(uint64)
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq), stored by
// value with the minimum at index 0. A 4-ary layout halves the tree depth
// of a binary heap, trading a few extra comparisons per level for fewer
// cache-missing levels — the standard shape for hot discrete-event
// queues. The backing slice doubles as the event free-list: pop clears
// the vacated tail slot (releasing the closure for GC) and push reuses
// it, so a simulation allocates queue memory only while growing beyond
// its high-water mark.
type eventHeap []event

// before reports whether a fires before b: earlier timestamp, or equal
// timestamps in scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting it up to its heap position.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	// Sift up, moving parents down into the hole rather than swapping.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release the closure and name for GC
	q = q[:n]
	*h = q
	if n > 0 {
		// Sift the displaced last element down from the root.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for j := first + 1; j < end; j++ {
				if q[j].before(&q[min]) {
					min = j
				}
			}
			if !q[min].before(&last) {
				break
			}
			q[i] = q[min]
			i = min
		}
		q[i] = last
	}
	return top
}

// Env is a discrete-event simulation environment. The zero value is not
// usable; create one with NewEnv.
type Env struct {
	now     Time
	seq     uint64
	events  eventHeap
	current *Proc // the proc currently executing, if any
	procs   int   // live (unfinished) procs
	rng     *RNG

	// wd, when non-nil, is the no-progress watchdog polled by Step. The
	// disarmed cost is one pointer comparison per event; armed, the poll
	// runs only when the clock reaches wdNext, so the per-event cost stays
	// one extra Time comparison.
	wd     *Watchdog
	wdNext Time
}

// NewEnv returns a fresh simulation environment with its clock at zero
// and a deterministic default random seed.
func NewEnv() *Env {
	return &Env{rng: NewRNG(1)}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Reset returns the environment to its just-constructed state — clock at
// zero, sequence counter at zero, default RNG seed — while retaining the
// event heap's backing storage, so a reused environment schedules without
// regrowing to its high-water mark. Processes blocked on WaitQueues are
// untouched: a drained simulation leaves its persistent service loops
// (netisr, driver interrupt handlers, protocol timers) parked exactly
// where a fresh environment's would park after their spawn events run, so
// reuse is invisible to simulated time. Resetting with events still
// pending panics: it would strand scheduled work and silently corrupt the
// next run's measurements.
func (e *Env) Reset() {
	if len(e.events) != 0 {
		panic(fmt.Sprintf("sim: Reset with %d events pending", len(e.events)))
	}
	e.now = 0
	e.seq = 0
	e.rng = NewRNG(1)
	e.wd = nil
	e.wdNext = 0
}

// RNG returns the environment's random number generator.
func (e *Env) RNG() *RNG { return e.rng }

// Seed reseeds the environment's random number generator.
func (e *Env) Seed(s uint64) { e.rng = NewRNG(s) }

// schedule is the single scheduling primitive every public variant folds
// into: it stamps the event with the next sequence number (the
// deterministic tie-break for equal timestamps) and inserts it into the
// heap. Scheduling in the past panics: it would violate causality and
// silently corrupt measurements. The callback is either fn, or argFn
// applied to arg — exactly one must be set; see the event comment.
func (e *Env) schedule(t Time, name string, fn func(), argFn func(uint64), arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, name: name, fn: fn, argFn: argFn, arg: arg})
}

// At schedules fn to run at absolute virtual time t.
func (e *Env) At(t Time, name string, fn func()) {
	e.schedule(t, name, fn, nil, 0)
}

// After schedules fn to run d after the current time. A negative delay
// panics.
func (e *Env) After(d Time, name string, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	e.schedule(e.now+d, name, fn, nil, 0)
}

// AtArg schedules fn(arg) at absolute virtual time t. It is At for
// callbacks that need one word of context: the function can be bound
// once and reused across schedulings, with arg (typically a generation
// counter) riding in the event itself — no closure allocation per call.
func (e *Env) AtArg(t Time, name string, fn func(uint64), arg uint64) {
	e.schedule(t, name, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current time. A negative
// delay panics.
func (e *Env) AfterArg(d Time, name string, fn func(uint64), arg uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	e.schedule(e.now+d, name, nil, fn, arg)
}

// Step runs the next pending event, advancing the clock to its timestamp.
// It reports whether an event was run. With a watchdog armed, Step
// refuses to run further events once the watchdog fires, so every run
// loop built on Step (Run, RunUntil) stops instead of
// executing a livelocked simulation forever.
func (e *Env) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	if e.wd != nil && e.events[0].at >= e.wdNext {
		if e.wd.check(e, e.events[0].at) {
			return false
		}
		e.wdNext = e.events[0].at + e.wd.pollEvery()
	}
	ev := e.events.pop()
	e.now = ev.at
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.argFn(ev.arg)
	}
	return true
}

// Run processes events until none remain.
func (e *Env) Run() {
	for e.Step() {
	}
}

// RunUntil processes events with timestamps at or before deadline and then
// advances the clock to the deadline. Later events remain pending.
func (e *Env) RunUntil(deadline Time) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		if !e.Step() {
			return // watchdog fired: leave the clock where it stopped
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending returns the number of scheduled events not yet run.
func (e *Env) Pending() int { return len(e.events) }

// SetWatchdog arms the no-progress watchdog (nil disarms).
func (e *Env) SetWatchdog(w *Watchdog) {
	e.wd = w
	e.wdNext = 0
}

// WatchdogErr returns the armed watchdog's abort diagnostic, or nil if
// no watchdog is armed or it has not fired.
func (e *Env) WatchdogErr() error {
	if e.wd == nil {
		return nil
	}
	return e.wd.Err()
}

// PendingSummary returns a histogram of pending event names — at most
// max entries, most frequent first — for watchdog diagnostics: a
// livelocked run's heap is typically thousands of copies of the same few
// timer events, and naming them identifies the spinning subsystem.
func (e *Env) PendingSummary(max int) string {
	counts := make(map[string]int)
	for i := range e.events {
		counts[e.events[i].name]++
	}
	type entry struct {
		name string
		n    int
	}
	ordered := make([]entry, 0, len(counts))
	for name, n := range counts {
		ordered = append(ordered, entry{name, n})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].n != ordered[j].n {
			return ordered[i].n > ordered[j].n
		}
		return ordered[i].name < ordered[j].name
	})
	if len(ordered) > max {
		ordered = ordered[:max]
	}
	parts := make([]string, len(ordered))
	for i, en := range ordered {
		parts[i] = fmt.Sprintf("%s×%d", en.name, en.n)
	}
	return strings.Join(parts, " ")
}
