// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocol components in this repository are driven by a single
// Engine: a priority queue of (time, sequence, callback) events executed
// in strict timestamp order, with FIFO tie-breaking by insertion order.
// Determinism is a hard requirement for debugging coherence races: given
// the same seed and configuration, a run is bit-for-bit reproducible.
//
// # Hot-path design
//
// The queue is a hand-rolled monomorphic 4-ary min-heap over event
// values. Unlike container/heap, nothing is boxed through interface{}:
// a push is an append plus integer compares, a pop shifts values and
// clears the vacated slot so a finished callback is not retained by the
// backing array. Steady-state Schedule/step cycles perform no heap
// allocation beyond amortized growth of the backing array; see
// ARCHITECTURE.md "Hot path & allocation discipline".
//
// Callers that schedule the same logical callback repeatedly (the
// network fabric's delivery records, tickers, pooled protocol events)
// should bind the callback once in a Timed and use ScheduleEvent, which
// is allocation-free per call.
package sim

import "fmt"

// Time is the simulated clock, in ticks. One tick loosely corresponds to
// one processor cycle in the performance model.
type Time uint64

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // insertion order; breaks timestamp ties FIFO
	fn  func()
}

// before reports whether a must execute before b: earlier timestamp, or
// earlier insertion on a timestamp tie (FIFO). (at, seq) pairs are unique
// because seq increments on every schedule, so ordering is total and the
// execution order is independent of heap layout.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). Children of slot i
// live at 4i+1..4i+4. A 4-ary layout halves tree depth versus binary,
// trading a few extra sibling compares (cache-resident) for fewer levels
// of swaps — the usual win for discrete-event queues where pops dominate.
type eventHeap []event

// push adds ev, restoring heap order.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the popped callback is unreachable once executed (a long
// RunUntil must not pin every closure it ever ran).
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	moved := q[n]
	q[n] = event{} // release fn: no liveness beyond execution
	q = q[:n]
	if n > 0 {
		// Sift moved down from the root, writing it only at its final
		// slot (half the stores of swap-based sifting).
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if q[j].before(q[m]) {
					m = j
				}
			}
			if !q[m].before(moved) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = moved
	}
	*h = q
	return top
}

func (h eventHeap) peek() event { return h[0] }

// Timed is a reusable scheduled event: the callback is bound once (one
// closure or method-value allocation at construction) and the record is
// then passed to ScheduleEvent any number of times with no per-schedule
// allocation. It is the kernel half of the pooling protocol used by the
// network fabric's delivery records.
//
// Contract for pooled Timed owners: a record handed to ScheduleEvent is
// owned by the engine until Fn runs; it must not be re-scheduled or
// recycled before then unless Fn tolerates concurrent pending instances.
type Timed struct {
	// Fn is the callback run when the event fires. It must be non-nil at
	// ScheduleEvent time and should be bound once, at construction.
	Fn func()
}

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	pq      eventHeap
	stopped bool

	// Executed counts events run; useful for runaway detection in tests.
	Executed uint64
}

// NewEngine returns a fresh engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after delay ticks (delay 0 means "later this tick",
// after already-queued events at the current time).
func (e *Engine) Schedule(delay Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	e.seq++
	e.pq.push(event{at: e.now + delay, seq: e.seq, fn: fn})
}

// ScheduleAt runs fn at absolute time t. Scheduling in the past panics:
// it would silently reorder causality.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now=%d)", t, e.now))
	}
	e.Schedule(t-e.now, fn)
}

// ScheduleEvent runs t.Fn after delay ticks, with the same ordering
// semantics as Schedule. It allocates nothing: the callback was bound
// when t was constructed.
func (e *Engine) ScheduleEvent(delay Time, t *Timed) {
	if t == nil || t.Fn == nil {
		panic("sim: ScheduleEvent with nil Timed/Fn")
	}
	e.seq++
	e.pq.push(event{at: e.now + delay, seq: e.seq, fn: t.Fn})
}

// ScheduleEventAt runs t.Fn at absolute time at (panics when at is in
// the past, like ScheduleAt), allocation-free like ScheduleEvent.
func (e *Engine) ScheduleEventAt(at Time, t *Timed) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleEventAt(%d) in the past (now=%d)", at, e.now))
	}
	e.ScheduleEvent(at-e.now, t)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

// Stop makes the current Run/RunUntil/RunUntilQuiet call return after the
// in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// step executes the earliest event. It reports false if none remain.
func (e *Engine) step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq.pop()
	e.now = ev.at
	e.Executed++
	ev.fn()
	return true
}

// RunUntilQuiet executes events until the queue drains or Stop is called.
// It returns the time at which the system went quiet. A coherence system
// that goes quiet while transactions are still outstanding is deadlocked;
// callers detect that by checking their own completion state afterwards.
func (e *Engine) RunUntilQuiet() Time {
	e.stopped = false
	for !e.stopped && e.step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued. It reports whether the queue went
// quiet (drained) before the deadline.
func (e *Engine) RunUntil(deadline Time) bool {
	e.stopped = false
	for !e.stopped {
		if len(e.pq) == 0 {
			return true
		}
		if e.pq.peek().at > deadline {
			e.now = deadline
			return false
		}
		e.step()
	}
	return len(e.pq) == 0
}

// Ticker invokes fn every period ticks until cancel is called.
// It is used for watchdogs and rate-limiter refills.
func (e *Engine) Ticker(period Time, fn func()) (cancel func()) {
	if period == 0 {
		panic("sim: Ticker with zero period")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.Schedule(period, tick)
		}
	}
	e.Schedule(period, tick)
	return func() { stopped = true }
}
