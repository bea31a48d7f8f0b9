package coherence

import "crossingguard/internal/mem"

// LineQueue is a per-line FIFO of parked work: a request that finds its
// line busy (an open transaction, a writeback in flight, a recall) parks
// here and is woken, in arrival order, when the line settles — the
// "stall on the line, wake when it settles" discipline of the paper's
// Ruby controllers. The zero value is an empty queue ready to use.
//
// Controllers wake parked work in one of three ways:
//   - Replay hands the head to a handler synchronously, so no same-tick
//     arrival can cut in front; Blocked gates fresh arrivals behind the
//     queue while letting the replayed head through (strict per-line FIFO).
//   - Pop removes the head for the caller to reschedule.
//   - Take removes a line's whole queue at once.
type LineQueue[T comparable] struct {
	lines     map[mem.Addr][]T
	n         int
	replaying T
}

// Park appends v to line's queue.
func (q *LineQueue[T]) Park(line mem.Addr, v T) {
	if q.lines == nil {
		q.lines = make(map[mem.Addr][]T)
	}
	q.lines[line] = append(q.lines[line], v)
	q.n++
}

// Pop removes and returns the head of line's queue; ok is false when
// nothing is parked on line.
func (q *LineQueue[T]) Pop(line mem.Addr) (v T, ok bool) {
	s := q.lines[line]
	if len(s) == 0 {
		return v, false
	}
	v = s[0]
	if len(s) == 1 {
		delete(q.lines, line)
	} else {
		q.lines[line] = s[1:]
	}
	q.n--
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
// line: the queue is non-empty and v is not the head being replayed.
func (q *LineQueue[T]) Blocked(line mem.Addr, v T) bool {
	return len(q.lines[line]) > 0 && v != q.replaying
}

// Replay pops the head of line's queue, if any, and runs fn on it
// synchronously. While fn runs, Blocked reports false for that head, so
// it is processed ahead of the rest of its queue and of any same-tick
// arrival. Replays nest: fn may settle the line again and replay the
// next head.
func (q *LineQueue[T]) Replay(line mem.Addr, fn func(T)) {
	v, ok := q.Pop(line)
	if !ok {
		return
	}
	prev := q.replaying
	q.replaying = v
	fn(v)
	q.replaying = prev
}

// Len reports the number of parked items across every line.
func (q *LineQueue[T]) Len() int { return q.n }

// Reset drops everything parked (a device reset).
func (q *LineQueue[T]) Reset() { *q = LineQueue[T]{} }
