package seq

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// echoCache is a trivial memory-backed cache that answers every request
// after a fixed delay, recording the order requests arrived.
type echoCache struct {
	id    coherence.NodeID
	eng   *sim.Engine
	fab   *network.Fabric
	mem   *mem.Memory
	delay sim.Time
	seen  []*coherence.Msg
}

func (c *echoCache) ID() coherence.NodeID { return c.id }
func (c *echoCache) Name() string         { return "echo" }
func (c *echoCache) Recv(m *coherence.Msg) {
	c2 := *m // kept past Recv: seen, and the delayed reply
	m = &c2
	c.seen = append(c.seen, m)
	c.eng.Schedule(c.delay, func() {
		resp := &coherence.Msg{Addr: m.Addr, Src: c.id, Dst: m.Src, Tag: m.Tag}
		switch m.Type {
		case coherence.ReqLoad:
			resp.Type = coherence.RespLoad
			resp.Val = c.mem.LoadByte(m.Addr)
		case coherence.ReqStore:
			resp.Type = coherence.RespStore
			c.mem.StoreByte(m.Addr, m.Val)
		}
		c.fab.Send(resp)
	})
}

func rig(delay sim.Time) (*sim.Engine, *Sequencer, *echoCache) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 7, network.Config{Latency: 1})
	cache := &echoCache{id: 100, eng: eng, fab: fab, mem: mem.NewMemory(), delay: delay}
	fab.Register(cache)
	s := New(1, "seq0", eng, fab, 100)
	return eng, s, cache
}

func TestStoreThenLoad(t *testing.T) {
	eng, s, _ := rig(5)
	var got byte
	s.Store(0x1000, 42, nil)
	s.Load(0x1000, func(op *Op) { got = op.Result })
	eng.RunUntilQuiet()
	if got != 42 {
		t.Fatalf("loaded %d, want 42", got)
	}
	if s.Loads != 1 || s.Stores != 1 || s.Completed != 2 {
		t.Fatalf("counts: %d loads %d stores %d completed", s.Loads, s.Stores, s.Completed)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after quiesce", s.Outstanding())
	}
}

func TestPerLineSerialization(t *testing.T) {
	// Two ops to the same line must reach the cache strictly one at a
	// time; ops to a different line may overlap.
	eng, s, cache := rig(10)
	s.Store(0x2000, 1, nil)
	s.Store(0x2001, 2, nil) // same line: must wait
	s.Store(0x3000, 3, nil) // different line: concurrent
	eng.RunUntilQuiet()
	if len(cache.seen) != 3 {
		t.Fatalf("cache saw %d ops", len(cache.seen))
	}
	// Arrival order: 0x2000 and 0x3000 first (t=1), then 0x2001 later.
	if cache.seen[2].Addr != 0x2001 {
		t.Fatalf("same-line op did not wait: order %v %v %v",
			cache.seen[0].Addr, cache.seen[1].Addr, cache.seen[2].Addr)
	}
}

func TestProgramOrderPerLine(t *testing.T) {
	// Store A=1; Store A=2; Load A must observe 2.
	eng, s, _ := rig(3)
	var got byte
	s.Store(0x40, 1, nil)
	s.Store(0x40, 2, nil)
	s.Load(0x40, func(op *Op) { got = op.Result })
	eng.RunUntilQuiet()
	if got != 2 {
		t.Fatalf("load got %d, want 2 (program order violated)", got)
	}
}

func TestMaxOutstanding(t *testing.T) {
	eng, s, cache := rig(50)
	s.MaxOutstanding = 2
	for i := 0; i < 6; i++ {
		s.Store(mem.Addr(0x1000+i*0x40), byte(i), nil)
	}
	// After issue, only 2 should have reached the cache before any
	// completion (cache delay 50 >> link latency 1).
	eng.RunUntil(10)
	if len(cache.seen) != 2 {
		t.Fatalf("cache saw %d early ops, want 2", len(cache.seen))
	}
	eng.RunUntilQuiet()
	if s.Completed != 6 {
		t.Fatalf("completed %d, want 6", s.Completed)
	}
}

func TestLatencyAccounting(t *testing.T) {
	eng, s, _ := rig(8)
	s.Load(0x0, nil)
	eng.RunUntilQuiet()
	// 1 (req link) + 8 (cache) + 1 (resp link) = 10
	if s.AvgLatency() != 10 || s.MaxLatency != 10 {
		t.Fatalf("avg %v max %v, want 10", s.AvgLatency(), s.MaxLatency)
	}
	if len(s.Latencies()) != 1 {
		t.Fatalf("latency samples %d", len(s.Latencies()))
	}
}

func TestOnQuiesce(t *testing.T) {
	eng, s, _ := rig(2)
	fired := 0
	s.OnQuiesce = func() { fired++ }
	s.Store(0x0, 1, nil)
	s.Store(0x40, 2, nil)
	eng.RunUntilQuiet()
	if fired != 1 {
		t.Fatalf("OnQuiesce fired %d times, want 1", fired)
	}
}

func TestUnknownTagPanics(t *testing.T) {
	eng, s, _ := rig(1)
	defer func() {
		if recover() == nil {
			t.Fatal("bogus completion did not panic")
		}
	}()
	_ = eng
	s.Recv(&coherence.Msg{Type: coherence.RespLoad, Tag: 999})
}
