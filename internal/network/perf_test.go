package network

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// obsInactiveBus returns a non-nil bus that Active() rejects (no sink).
func obsInactiveBus() *obs.Bus { return obs.NewBus(nil) }

// nop is a do-nothing endpoint for allocation accounting: any work in
// Recv would be charged to the fabric's budget.
type nop struct{ id coherence.NodeID }

func (n *nop) ID() coherence.NodeID { return n.id }
func (n *nop) Name() string         { return "nop" }
func (n *nop) Recv(*coherence.Msg)  {}

// TestFabricSendAllocFree pins the hot-path budget from ISSUE 4: with no
// interceptor and no active bus, a steady-state Send (including engine
// scheduling and delivery) performs zero allocations. Any regression —
// a reintroduced delivery closure, map-based stats, eager trace-event
// construction — fails this test.
func TestFabricSendAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 2, Ordered: true})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	m := &coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2}
	// Warm-up: create the channel, the delivery record, and grow the
	// engine's queue to steady-state capacity.
	for i := 0; i < 64; i++ {
		f.Send(m)
	}
	eng.RunUntilQuiet()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			f.Send(m)
		}
		eng.RunUntilQuiet()
	})
	if allocs != 0 {
		t.Fatalf("Fabric.Send allocated %v objects/run, want 0", allocs)
	}
}

// TestFabricSendAllocFreeInactiveBus extends the budget to the trace
// fast path: a bus with no sink (and one with a latched error) must not
// cost event construction.
func TestFabricSendAllocFreeInactiveBus(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 1})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	f.Bus = obsInactiveBus()
	m := &coherence.Msg{Type: coherence.AGetM, Addr: 0x2000, Src: 1, Dst: 2,
		Requestor: 7, Acks: 3} // fields MsgEvent would render into a payload
	for i := 0; i < 64; i++ {
		f.Send(m)
	}
	eng.RunUntilQuiet()
	allocs := testing.AllocsPerRun(200, func() {
		f.Send(m)
		eng.RunUntilQuiet()
	})
	if allocs != 0 {
		t.Fatalf("Send with inactive bus allocated %v objects/run, want 0", allocs)
	}
}

// TestFabricSendAllocFreeFreshLiteral extends the budget to the way
// every controller sends: a fresh &coherence.Msg{...} literal per Send.
// Send copies the message into its pooled record, so the literal never
// escapes to the heap.
func TestFabricSendAllocFreeFreshLiteral(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 2, Ordered: true})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	send := func(i int) {
		f.Send(&coherence.Msg{Type: coherence.ADataM, Addr: mem.Addr(0x1000 + 64*(i%8)),
			Src: 1, Dst: 2, Requestor: 1, Acks: i % 3, Tag: uint64(i)})
	}
	for i := 0; i < 64; i++ {
		send(i)
	}
	eng.RunUntilQuiet()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			send(i)
		}
		eng.RunUntilQuiet()
	})
	if allocs != 0 {
		t.Fatalf("Send of a fresh literal allocated %v objects/run, want 0", allocs)
	}
}

// pinger answers every message it receives with a fresh literal back to
// the sender until the shared budget is spent: a Recv that Sends.
type pinger struct {
	id   coherence.NodeID
	fab  *Fabric
	left *int
}

func (p *pinger) ID() coherence.NodeID { return p.id }
func (p *pinger) Name() string         { return "pinger" }
func (p *pinger) Recv(m *coherence.Msg) {
	if *p.left > 0 {
		*p.left--
		p.fab.Send(&coherence.Msg{Type: m.Type, Addr: m.Addr, Src: p.id, Dst: m.Src, Tag: m.Tag + 1})
	}
}

// TestFabricPingPongAllocFree pins the budget for a receiver that sends
// from inside Recv while it still borrows the delivered message: the
// reply takes a second record, and the pool settles at that depth.
func TestFabricPingPongAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 1, Ordered: true})
	left := 0
	f.Register(&pinger{id: 1, fab: f, left: &left})
	f.Register(&pinger{id: 2, fab: f, left: &left})
	volley := func() {
		left = 32
		f.Send(&coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2})
		eng.RunUntilQuiet()
	}
	volley()
	if left != 0 {
		t.Fatalf("volley stopped with %d hops left", left)
	}
	if allocs := testing.AllocsPerRun(200, volley); allocs != 0 {
		t.Fatalf("ping-pong volley allocated %v objects/run, want 0", allocs)
	}
}

// deferrer schedules its delayed work through the fabric's pooled
// records, with the continuation bound once as controllers do.
type deferrer struct {
	fab   *Fabric
	seen  int
	later func(*coherence.Msg)
}

func (d *deferrer) handle(m *coherence.Msg) {
	d.seen++
	d.fab.SendAfter(3, &coherence.Msg{Type: coherence.AWBAck, Addr: m.Addr, Src: 1, Dst: 2})
}

// TestFabricAfterAllocFree pins the budget for delayed message work: an
// After continuation that itself issues a SendAfter costs no allocation
// once the pool has grown.
func TestFabricAfterAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 2})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	d := &deferrer{fab: f}
	d.later = d.handle
	run := func() {
		before := d.seen
		for i := 0; i < 8; i++ {
			f.After(sim.Time(i%3), &coherence.Msg{Type: coherence.AGetS, Addr: mem.Addr(0x1000 + 64*i)}, d.later)
		}
		eng.RunUntilQuiet()
		if d.seen-before != 8 {
			t.Fatalf("continuation ran %d times in a run, want 8", d.seen-before)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("After/SendAfter allocated %v objects/run, want 0", allocs)
	}
	if s := f.StatsFor(1, 2); s.Msgs != uint64(d.seen) {
		t.Fatalf("SendAfter delivered %d messages, want %d", s.Msgs, d.seen)
	}
}

// TestDeliveryRecordPooled checks the free list actually recycles: a
// long sequential message stream must settle on a handful of records
// (one per concurrently in-flight delivery), not one per message.
func TestDeliveryRecordPooled(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 3, Ordered: true})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	m := &coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2}
	for round := 0; round < 50; round++ {
		for i := 0; i < 4; i++ {
			f.Send(m)
		}
		eng.RunUntilQuiet()
	}
	n := 0
	for r := f.freeRec; r != nil; r = r.next {
		n++
		if r.m != (coherence.Msg{}) || r.ch != nil || r.dst != nil || r.fn != nil {
			t.Fatal("pooled record still pins delivery state")
		}
	}
	if n == 0 || n > 4 {
		t.Fatalf("free list holds %d records after 200 sequential sends, want 1..4", n)
	}
}

// TestInvalidMsgTypeClamped checks forged message types (a fuzzer
// inventing values outside the defined space) land in the MsgInvalid
// accounting bucket instead of crashing the fixed-array stats.
func TestInvalidMsgTypeClamped(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 1})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	f.Send(&coherence.Msg{Type: coherence.MsgType(200), Src: 1, Dst: 2})
	f.Send(&coherence.Msg{Type: coherence.MsgType(-3), Src: 1, Dst: 2})
	eng.RunUntilQuiet()
	s := f.StatsFor(1, 2)
	if s.Msgs != 2 || s.MsgsByType[coherence.MsgInvalid] != 2 {
		t.Fatalf("forged types not clamped: %+v", s)
	}
}

// BenchmarkFabricSend measures the closure-free hot path end to end:
// one Send plus its engine-scheduled delivery per op. The perf gate in
// CI (cmd/xgbench -check) fails if allocs/op leaves 0.
func BenchmarkFabricSend(b *testing.B) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 2, Ordered: true})
	f.Register(&nop{id: 1})
	f.Register(&nop{id: 2})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2})
	eng.RunUntilQuiet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh literal per op, as controllers send: it stays on the
		// stack because Send copies it into the delivery record.
		f.Send(&coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2, Tag: uint64(i)})
		eng.RunUntilQuiet()
	}
}
