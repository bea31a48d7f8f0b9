package coherence

import "crossingguard/internal/mem"

// LineQueue is a per-line FIFO of parked work: a request that finds its
// line busy (an open transaction, a writeback in flight, a recall) parks
// here and is woken, in arrival order, when the line settles — the
// "stall on the line, wake when it settles" discipline of the paper's
// Ruby controllers. The zero value is an empty queue ready to use.
//
// Items park by value: the queue owns its copy, so a controller can park
// a message it only borrows (see Controller.Recv) without cloning it.
//
// Controllers wake parked work in one of three ways:
//   - Replay hands the head to a handler synchronously, so no same-tick
//     arrival can cut in front; Blocked gates fresh arrivals behind the
//     queue while letting the replayed head through (strict per-line FIFO).
//   - Pop removes the head for the caller to reschedule.
//   - Take removes a line's whole queue at once.
type LineQueue[T any] struct {
	lines     map[mem.Addr][]T
	n         int
	replaying *T
}

// Park appends a copy of v to line's queue.
func (q *LineQueue[T]) Park(line mem.Addr, v T) {
	if q.lines == nil {
		q.lines = make(map[mem.Addr][]T)
	}
	q.lines[line] = append(q.lines[line], v)
	q.n++
}

// pop unlinks the head of line's queue and returns a pointer to its slot,
// or nil when nothing is parked on line. The slot is never reused by the
// queue (later parks append past it or start a new slice), so the
// pointer stays valid for as long as the caller holds it.
func (q *LineQueue[T]) pop(line mem.Addr) *T {
	s := q.lines[line]
	if len(s) == 0 {
		return nil
	}
	if len(s) == 1 {
		delete(q.lines, line)
	} else {
		q.lines[line] = s[1:]
	}
	q.n--
	return &s[0]
}

// Pop removes and returns the head of line's queue; ok is false when
// nothing is parked on line.
func (q *LineQueue[T]) Pop(line mem.Addr) (v T, ok bool) {
	p := q.pop(line)
	if p == nil {
		return v, false
	}
	v = *p
	var zero T
	*p = zero // the dead slot must not pin what v references
	return v, true
}

// Take removes and returns everything parked on line, in arrival order.
func (q *LineQueue[T]) Take(line mem.Addr) []T {
	s := q.lines[line]
	if len(s) > 0 {
		delete(q.lines, line)
		q.n -= len(s)
	}
	return s
}

// Blocked reports whether v must park behind work already queued on
// line: the queue is non-empty and v is not the head being replayed
// (compared by identity — the pointer Replay handed out).
func (q *LineQueue[T]) Blocked(line mem.Addr, v *T) bool {
	return len(q.lines[line]) > 0 && v != q.replaying
}

// Replay pops the head of line's queue, if any, and runs fn on the
// queue's own copy synchronously. While fn runs, Blocked reports false
// for that pointer, so the head is processed ahead of the rest of its
// queue and of any same-tick arrival. Like a fabric delivery, fn only
// borrows the item: it is zeroed when fn returns. Replays nest: fn may
// settle the line again and replay the next head.
func (q *LineQueue[T]) Replay(line mem.Addr, fn func(*T)) {
	v := q.pop(line)
	if v == nil {
		return
	}
	prev := q.replaying
	q.replaying = v
	fn(v)
	q.replaying = prev
	var zero T
	*v = zero
}

// Len reports the number of parked items across every line.
func (q *LineQueue[T]) Len() int { return q.n }

// Reset drops everything parked (a device reset).
func (q *LineQueue[T]) Reset() { *q = LineQueue[T]{} }
