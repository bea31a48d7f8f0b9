package sim_test

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"crossingguard/internal/sim"
	"crossingguard/internal/sim/simref"
)

// kernel abstracts the two engines under differential test.
type kernel interface {
	Schedule(delay sim.Time, fn func())
	Now() sim.Time
	RunUntilQuiet() sim.Time
}

// driveRandom feeds eng a pseudo-random self-extending schedule derived
// only from seed and n: initial events at random delays (zero included,
// so same-tick FIFO ties are exercised on every run), each firing event
// logging its id and possibly scheduling children, several at delay 0 to
// pile ties onto the current tick.
func driveRandom(eng kernel, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	next := 0
	budget := n
	var spawn func()
	spawn = func() {
		id := next
		next++
		eng.Schedule(sim.Time(rng.Intn(8)), func() {
			order = append(order, id)
			for k := rng.Intn(3); k > 0 && budget > 0; k-- {
				budget--
				spawn()
			}
		})
	}
	for i := 0; i < 4; i++ {
		id := next
		next++
		d := sim.Time(rng.Intn(4)) * sim.Time(i%2) // half start at t=0: ties
		eng.Schedule(d, func() {
			order = append(order, id)
			if budget > 0 {
				budget--
				spawn()
			}
		})
	}
	eng.RunUntilQuiet()
	return order
}

// TestDifferentialAgainstReference drives the monomorphic 4-ary heap and
// the frozen container/heap kernel with identical randomized schedules
// and requires identical execution order — including zero-delay same-tick
// FIFO ties, which is where a heap rewrite would betray determinism.
func TestDifferentialAgainstReference(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		got := driveRandom(sim.NewEngine(), seed, int(n))
		want := driveRandom(simref.NewEngine(), seed, int(n))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialSameTickStorm pins the pure-tie case: hundreds of
// events on one tick, popped interleaved with same-tick reschedules.
func TestDifferentialSameTickStorm(t *testing.T) {
	run := func(eng kernel) []int {
		var order []int
		for i := 0; i < 300; i++ {
			i := i
			eng.Schedule(0, func() {
				order = append(order, i)
				if i%7 == 0 {
					j := i + 1000
					eng.Schedule(0, func() { order = append(order, j) })
				}
			})
		}
		eng.RunUntilQuiet()
		return order
	}
	got, want := run(sim.NewEngine()), run(simref.NewEngine())
	if len(got) != len(want) {
		t.Fatalf("executed %d events, reference executed %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d: got %d, reference %d", i, got[i], want[i])
		}
	}
}

// TestPoppedEventReleased is the regression test for the old kernel's
// Pop leak: the backing array slot of a popped event kept the closure —
// and everything it captured — alive for the rest of the run. The new
// pop zeroes the vacated slot, so once an event has run, its closure is
// collectable even while the engine retains a warm queue.
func TestPoppedEventReleased(t *testing.T) {
	e := sim.NewEngine()
	collected := make(chan struct{})
	func() {
		obj := new([1 << 16]byte)
		runtime.SetFinalizer(obj, func(*[1 << 16]byte) { close(collected) })
		e.Schedule(1, func() { obj[0] = 1 })
	}()
	// A later event keeps the engine's backing array live past the pop,
	// exactly the long-RunUntil shape that used to pin every closure.
	e.Schedule(1000, func() {})
	if e.RunUntil(500) {
		t.Fatal("queue unexpectedly drained")
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Fatal("popped event's closure still reachable: pop did not clear its heap slot")
}

// TestScheduleEventOrdering checks Timed events interleave with plain
// closures under the same (time, seq) FIFO contract.
func TestScheduleEventOrdering(t *testing.T) {
	e := sim.NewEngine()
	var order []int
	tev := &sim.Timed{Fn: func() { order = append(order, 1) }}
	e.Schedule(5, func() { order = append(order, 0) })
	e.ScheduleEvent(5, tev)
	e.Schedule(5, func() { order = append(order, 2) })
	e.ScheduleEventAt(3, &sim.Timed{Fn: func() { order = append(order, -1) }})
	e.RunUntilQuiet()
	want := []int{-1, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestScheduleEventReuse schedules one Timed many times (sequentially,
// as the pooled-record contract requires) and checks every firing runs.
func TestScheduleEventReuse(t *testing.T) {
	e := sim.NewEngine()
	n := 0
	var tev *sim.Timed
	tev = &sim.Timed{Fn: func() {
		n++
		if n < 100 {
			e.ScheduleEvent(2, tev)
		}
	}}
	e.ScheduleEvent(1, tev)
	e.RunUntilQuiet()
	if n != 100 {
		t.Fatalf("fired %d times, want 100", n)
	}
	if e.Now() != 1+99*2 {
		t.Fatalf("Now = %d, want %d", e.Now(), 1+99*2)
	}
}

// TestScheduleEventNilPanics pins the nil contracts.
func TestScheduleEventNilPanics(t *testing.T) {
	for name, fn := range map[string]func(*sim.Engine){
		"nil-timed": func(e *sim.Engine) { e.ScheduleEvent(1, nil) },
		"nil-fn":    func(e *sim.Engine) { e.ScheduleEvent(1, &sim.Timed{}) },
		"past": func(e *sim.Engine) {
			e.Schedule(5, func() {})
			e.RunUntilQuiet()
			e.ScheduleEventAt(1, &sim.Timed{Fn: func() {}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(sim.NewEngine())
		}()
	}
}
