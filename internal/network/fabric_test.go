package network

import (
	"testing"
	"testing/quick"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// sink records (copies of) received messages with arrival times.
type sink struct {
	id   coherence.NodeID
	eng  *sim.Engine
	got  []*coherence.Msg
	when []sim.Time
}

func (s *sink) ID() coherence.NodeID { return s.id }
func (s *sink) Name() string         { return "sink" }
func (s *sink) Recv(m *coherence.Msg) {
	c := *m
	s.got = append(s.got, &c)
	s.when = append(s.when, s.eng.Now())
}

func setup(seed int64, cfg Config) (*sim.Engine, *Fabric, *sink, *sink) {
	eng := sim.NewEngine()
	f := NewFabric(eng, seed, cfg)
	a := &sink{id: 1, eng: eng}
	b := &sink{id: 2, eng: eng}
	f.Register(a)
	f.Register(b)
	return eng, f, a, b
}

func TestFixedLatencyDelivery(t *testing.T) {
	eng, f, _, b := setup(1, Config{Latency: 10})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	eng.RunUntilQuiet()
	if len(b.got) != 1 || b.when[0] != 10 {
		t.Fatalf("got %d msgs, t=%v; want 1 at t=10", len(b.got), b.when)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{})
	f.Register(&sink{id: 1, eng: eng})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	f.Register(&sink{id: 1, eng: eng})
}

func TestUnknownDestinationDropped(t *testing.T) {
	eng, f, _, _ := setup(1, Config{})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 99})
	eng.RunUntilQuiet()
	if f.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", f.Dropped)
	}
}

func TestOrderedChannelFIFO(t *testing.T) {
	// With heavy jitter, an ordered channel must still deliver in send
	// order; an unordered channel with the same seed reorders.
	run := func(ordered bool) []int {
		eng, f, _, b := setup(42, Config{Latency: 5, Jitter: 50, Ordered: ordered})
		for i := 0; i < 64; i++ {
			f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2, Acks: i})
		}
		eng.RunUntilQuiet()
		out := make([]int, len(b.got))
		for i, m := range b.got {
			out[i] = m.Acks
		}
		return out
	}
	inOrder := func(xs []int) bool {
		for i := 1; i < len(xs); i++ {
			if xs[i] < xs[i-1] {
				return false
			}
		}
		return true
	}
	if got := run(true); !inOrder(got) {
		t.Fatalf("ordered channel reordered: %v", got)
	}
	if got := run(false); inOrder(got) {
		t.Fatal("unordered channel with jitter 50 never reordered (suspicious seed)")
	}
}

// Property: ordered channels preserve FIFO for any seed and any jitter.
func TestPropertyOrderedFIFO(t *testing.T) {
	f := func(seed int64, jitter uint8, n uint8) bool {
		eng, fab, _, b := setup(seed, Config{Latency: 1, Jitter: sim.Time(jitter), Ordered: true})
		for i := 0; i < int(n); i++ {
			fab.Send(&coherence.Msg{Type: coherence.AGetM, Src: 1, Dst: 2, Acks: i})
		}
		eng.RunUntilQuiet()
		if len(b.got) != int(n) {
			return false
		}
		for i, m := range b.got {
			if m.Acks != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteOverride(t *testing.T) {
	eng, f, a, b := setup(1, Config{Latency: 100})
	f.SetRoutePair(1, 2, Config{Latency: 3})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 2, Dst: 1})
	eng.RunUntilQuiet()
	if b.when[0] != 3 || a.when[0] != 3 {
		t.Fatalf("override latencies: %v %v, want 3", b.when, a.when)
	}
}

func TestTrafficAccounting(t *testing.T) {
	eng, f, _, _ := setup(1, Config{Latency: 1})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	f.Send(&coherence.Msg{Type: coherence.ADataM, Src: 1, Dst: 2, Data: mem.Zero()})
	eng.RunUntilQuiet()
	s := f.StatsFor(1, 2)
	if s.Msgs != 2 {
		t.Fatalf("Msgs = %d", s.Msgs)
	}
	wantBytes := uint64(coherence.ControlBytes + coherence.ControlBytes + coherence.DataBytes)
	if s.Bytes != wantBytes {
		t.Fatalf("Bytes = %d, want %d", s.Bytes, wantBytes)
	}
	if s.MsgsByType[coherence.AGetS] != 1 || s.BytesByType[coherence.ADataM] != 72 {
		t.Fatalf("per-type stats wrong: %+v", s)
	}
	if f.TotalBytes(nil) != wantBytes {
		t.Fatalf("TotalBytes = %d", f.TotalBytes(nil))
	}
	if f.TotalBytes(func(src, dst coherence.NodeID) bool { return src == 2 }) != 0 {
		t.Fatal("filtered TotalBytes should be 0")
	}
	if got := f.StatsFor(2, 1); got.Msgs != 0 {
		t.Fatal("reverse channel should be empty")
	}
}

func TestVisitStats(t *testing.T) {
	eng, f, _, _ := setup(1, Config{Latency: 1})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	eng.RunUntilQuiet()
	n := 0
	f.VisitStats(func(src, dst coherence.NodeID, s *Stats) { n++ })
	if n != 1 {
		t.Fatalf("VisitStats visited %d channels, want 1", n)
	}
}

func TestBusAttachedToFabric(t *testing.T) {
	eng, f, _, _ := setup(1, Config{Latency: 1})
	ring := obs.NewRing(16)
	f.Bus = obs.NewBus(ring)
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 99}) // dropped
	eng.RunUntilQuiet()
	evs := ring.Events()
	if len(evs) != 3 { // send + recv + drop
		t.Fatalf("bus captured %d events, want 3:\n%s", len(evs), ring.Dump())
	}
	kinds := map[obs.Kind]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	if kinds[obs.KindSend] != 1 || kinds[obs.KindRecv] != 1 || kinds[obs.KindDrop] != 1 {
		t.Fatalf("event kinds wrong: %v", kinds)
	}
	for _, e := range evs {
		if e.Kind == obs.KindRecv && (e.Tick != 1 || e.Component != "sink") {
			t.Fatalf("recv event tick=%d comp=%q, want 1/sink", e.Tick, e.Component)
		}
	}
}

func TestFabricMetrics(t *testing.T) {
	eng, f, _, _ := setup(1, Config{Latency: 1})
	r := obs.NewRegistry()
	f.AttachObs(r)
	for i := 0; i < 3; i++ {
		f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	}
	f.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 99}) // dropped
	if got := r.Gauge("net.inflight").Value(); got != 3 {
		t.Fatalf("inflight before delivery = %d, want 3", got)
	}
	eng.RunUntilQuiet()
	if got := r.Counter("net.msgs").Value(); got != 3 {
		t.Fatalf("net.msgs = %d, want 3", got)
	}
	if got := r.Counter("net.dropped").Value(); got != 1 {
		t.Fatalf("net.dropped = %d, want 1", got)
	}
	g := r.Gauge("net.inflight")
	if g.Value() != 0 || g.Max() != 3 {
		t.Fatalf("inflight value=%d max=%d, want 0/3", g.Value(), g.Max())
	}
	if h := r.Histogram("net.channel.depth").Sample(); h.N() != 3 || h.Max() != 3 {
		t.Fatalf("depth histogram n=%d max=%f, want 3/3", h.N(), h.Max())
	}
	wantBytes := uint64(3 * coherence.ControlBytes)
	if got := r.Counter("net.bytes").Value(); got != wantBytes {
		t.Fatalf("net.bytes = %d, want %d", got, wantBytes)
	}
}

// keeper violates the borrow contract on purpose: it keeps the pointer
// Recv lends it, after checking the message is intact during the call.
type keeper struct {
	id     coherence.NodeID
	kept   []*coherence.Msg
	during []coherence.Msg
}

func (k *keeper) ID() coherence.NodeID { return k.id }
func (k *keeper) Name() string         { return "keeper" }
func (k *keeper) Recv(m *coherence.Msg) {
	k.kept = append(k.kept, m)
	k.during = append(k.during, *m)
}

// TestRecvBorrowsMessage pins the ownership contract: the message a
// receiver gets is the fabric's copy, intact for the duration of Recv
// and zeroed once Recv returns, so a controller that keeps the pointer
// instead of a copy reads MsgInvalid at address 0 rather than a stale
// or reused message. The sender's own message is never touched, and an
// After continuation borrows its argument the same way.
func TestRecvBorrowsMessage(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, 1, Config{Latency: 1})
	k := &keeper{id: 2}
	f.Register(&nop{id: 1})
	f.Register(k)
	sent := coherence.Msg{Type: coherence.ADataM, Addr: 0x1040, Src: 1, Dst: 2,
		Data: mem.Zero(), Dirty: true, Tag: 9}
	f.Send(&sent)
	f.SendAfter(5, &coherence.Msg{Type: coherence.AInv, Addr: 0x2000, Src: 1, Dst: 2})
	var keptAfter *coherence.Msg
	var duringAfter coherence.Msg
	f.After(2, &coherence.Msg{Type: coherence.AGetS, Addr: 0x3000}, func(m *coherence.Msg) {
		keptAfter, duringAfter = m, *m
	})
	eng.RunUntilQuiet()

	if len(k.kept) != 2 {
		t.Fatalf("keeper received %d messages, want 2", len(k.kept))
	}
	if k.during[0] != sent || k.during[1].Type != coherence.AInv || k.during[1].Addr != 0x2000 {
		t.Fatalf("messages not intact during Recv: %v / %v", &k.during[0], &k.during[1])
	}
	if duringAfter.Type != coherence.AGetS || duringAfter.Addr != 0x3000 {
		t.Fatalf("After continuation saw %v, want A:GetS at 0x3000", &duringAfter)
	}
	for i, m := range append(k.kept, keptAfter) {
		if *m != (coherence.Msg{}) || m.Type != coherence.MsgInvalid {
			t.Fatalf("kept pointer %d reads %v after its handler returned, want the zero message", i, m)
		}
	}
	if sent.Type != coherence.ADataM || sent.Data == nil {
		t.Fatalf("sender's message was modified: %v", &sent)
	}
}
