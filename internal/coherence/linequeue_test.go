package coherence

import (
	"reflect"
	"testing"

	"crossingguard/internal/mem"
)

func TestLineQueueFIFOPerLine(t *testing.T) {
	var q LineQueue[int]
	const a, b mem.Addr = 0x40, 0x80
	for i := 1; i <= 3; i++ {
		q.Park(a, i)
		q.Park(b, 10*i)
	}
	if q.Len() != 6 {
		t.Fatalf("Len = %d after 6 parks, want 6", q.Len())
	}
	for want := 1; want <= 3; want++ {
		if got, ok := q.Pop(a); !ok || got != want {
			t.Fatalf("Pop(a) = %d,%v, want %d,true", got, ok, want)
		}
	}
	if _, ok := q.Pop(a); ok {
		t.Fatal("Pop on a drained line reported ok")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after draining one line, want 3", q.Len())
	}
	// Draining line a left line b untouched.
	if got := q.Take(b); !reflect.DeepEqual(got, []int{10, 20, 30}) {
		t.Fatalf("Take(b) = %v, want [10 20 30]", got)
	}
	if got := q.Take(b); len(got) != 0 || q.Len() != 0 {
		t.Fatalf("second Take(b) = %v, Len = %d; want empty, 0", got, q.Len())
	}
}

// A replayed head is not blocked by the rest of its queue, every other
// arrival is, and a replay that settles the line again replays the next
// head before anything parked later — nothing overtakes.
func TestLineQueueReplayNoOvertaking(t *testing.T) {
	var q LineQueue[string]
	const line mem.Addr = 0x40
	if q.Blocked(line, "x") {
		t.Fatal("empty line reported blocked")
	}
	q.Park(line, "first")
	q.Park(line, "second")
	if !q.Blocked(line, "late") {
		t.Fatal("fresh arrival not blocked behind a non-empty queue")
	}
	var order []string
	var handle func(string)
	handle = func(v string) {
		if q.Blocked(line, v) {
			t.Fatalf("replayed head %q reported blocked", v)
		}
		if !q.Blocked(line, "late") && q.Len() > 0 {
			t.Fatalf("same-tick arrival may overtake while %q replays", v)
		}
		order = append(order, v)
		q.Replay(line, handle) // the line settles again: next head
	}
	q.Replay(line, handle)
	q.Park(line, "late")
	q.Replay(line, handle)
	if want := []string{"first", "second", "late"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("replay order = %v, want %v", order, want)
	}
	if q.Len() != 0 || q.Blocked(line, "x") {
		t.Fatalf("queue not empty after replays: Len = %d", q.Len())
	}
	q.Replay(line, func(string) { t.Fatal("Replay ran fn on an empty line") })
}

func TestLineQueueReset(t *testing.T) {
	var q LineQueue[int]
	q.Park(0x40, 1)
	q.Park(0x80, 2)
	q.Reset()
	if q.Len() != 0 || q.Blocked(0x40, 9) {
		t.Fatalf("after Reset: Len = %d, blocked = %v", q.Len(), q.Blocked(0x40, 9))
	}
	if _, ok := q.Pop(0x80); ok {
		t.Fatal("Pop after Reset returned a parked item")
	}
	q.Park(0x40, 3)
	if got, ok := q.Pop(0x40); !ok || got != 3 || q.Len() != 0 {
		t.Fatalf("reuse after Reset: Pop = %d,%v Len = %d", got, ok, q.Len())
	}
}
