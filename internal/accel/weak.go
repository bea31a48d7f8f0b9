package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// The weakly-coherent accelerator hierarchy of paper §2.1: "an
// accelerator may have multiple private L1s and a shared L2, and a
// programming model that requires an explicit flush before data from one
// core is guaranteed visible at other accelerator L1s. Crossing Guard
// places no restrictions on coherence behavior within the accelerator
// protocol."
//
// Inside the accelerator, writes are NOT propagated between sibling L1s:
// each core writes its own copy and publishes with an explicit Flush
// (write back dirty lines + drop clean ones). Toward the HOST the shared
// WeakL2 remains fully coherent — it acquires host write permission
// through the guard before any core dirties a line, and on a guard
// Invalidate it recalls the line from every holder (merging dirty
// copies) before answering. Host safety is therefore unaffected by the
// accelerator's weak internal model, which is exactly the paper's point.

// WeakL1 is one core's incoherent private cache.
type WeakL1 struct {
	id   coherence.NodeID
	name string
	eng  *sim.Engine
	fab  *network.Fabric
	cfg  Config
	l2   coherence.NodeID

	cache      *cacheset.Cache[innerLine]
	waiting    coherence.LineQueue[coherence.Msg]
	stalledOps []coherence.Msg
	flushing   int // outstanding flush writebacks
	onFlush    func()
	// recvFn is c.Recv bound once, for fabric.After replays.
	recvFn func(*coherence.Msg)
}

// NewWeakL1 builds and registers a weak private L1.
func NewWeakL1(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	l2 coherence.NodeID, cfg Config) *WeakL1 {
	c := &WeakL1{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, l2: l2,
		cache: cacheset.New[innerLine](cfg.L1Sets, cfg.L1Ways),
	}
	c.recvFn = c.Recv
	fab.Register(c)
	return c
}

// ID implements coherence.Controller.
func (c *WeakL1) ID() coherence.NodeID { return c.id }

// Name implements coherence.Controller.
func (c *WeakL1) Name() string { return c.name }

// Recv implements coherence.Controller.
func (c *WeakL1) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		c.handleCPU(m)
	case coherence.XDataS, coherence.XDataM:
		c.handleData(m)
	case coherence.XWBAck:
		c.handleWBAck(m)
	case coherence.XInv:
		c.handleInv(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", c.name, m))
	}
}

func (c *WeakL1) send(m *coherence.Msg) { c.fab.Send(m) }

func (c *WeakL1) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	e := c.cache.Lookup(m.Addr)
	if e != nil && e.V.state == NB {
		c.waiting.Park(line, *m)
		return
	}
	isStore := m.Type == coherence.ReqStore
	if e == nil {
		var victim *cacheset.Entry[innerLine]
		var ok bool
		e, victim, ok = c.cache.Allocate(m.Addr, func(e *cacheset.Entry[innerLine]) bool {
			return e.V.state != NB
		})
		if !ok {
			c.stalledOps = append(c.stalledOps, *m)
			return
		}
		if victim != nil {
			c.evictWeak(victim.Addr, &victim.V, nil)
		}
		// Writes need host write permission at the L2 (XGetM ensures
		// it) but do NOT invalidate sibling copies (weak model).
		ty := coherence.XGetS
		if isStore {
			ty = coherence.XGetM
		}
		e.V = innerLine{state: NB, op: *m}
		c.send(&coherence.Msg{Type: ty, Addr: line, Src: c.id, Dst: c.l2})
		return
	}
	switch {
	case !isStore:
		c.respond(m, e.V.data[m.Addr.Offset()])
	case e.V.state == NM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
	default: // store to a read-only local copy: upgrade (no sibling invs)
		e.V.state = NB
		e.V.op = *m
		c.send(&coherence.Msg{Type: coherence.XGetM, Addr: line, Src: c.id, Dst: c.l2})
	}
}

// evictWeak writes back a dirty (NM) line or silently drops a clean one;
// cb runs when the writeback (if any) completes.
func (c *WeakL1) evictWeak(addr mem.Addr, v *innerLine, cb func()) {
	if v.state != NM {
		c.send(&coherence.Msg{Type: coherence.XPutS, Addr: addr, Src: c.id, Dst: c.l2})
		if cb != nil {
			cb()
		}
		return
	}
	c.flushing++
	c.send(&coherence.Msg{Type: coherence.XPutM, Addr: addr, Src: c.id, Dst: c.l2,
		Data: v.data.Copy(), Dirty: true})
	if cb != nil {
		prev := c.onFlush
		c.onFlush = func() {
			if prev != nil {
				prev()
			}
			cb()
		}
	}
}

// Flush publishes this core's writes: every dirty line is written back to
// the shared L2 and every line is dropped, so the next loads (here and at
// sibling cores, after their own flush/reload) observe fresh data. done
// runs once all writebacks are acknowledged — the accelerator's release
// fence.
func (c *WeakL1) Flush(done func()) {
	var dirty []*cacheset.Entry[innerLine]
	c.cache.Visit(func(e *cacheset.Entry[innerLine]) {
		if e.V.state == NB {
			panic(fmt.Sprintf("%s: Flush with operations outstanding", c.name))
		}
		dirty = append(dirty, e)
	})
	pending := 0
	for _, e := range dirty {
		if e.V.state == NM {
			pending++
			c.flushing++
			c.send(&coherence.Msg{Type: coherence.XPutM, Addr: e.Addr, Src: c.id, Dst: c.l2,
				Data: e.V.data.Copy(), Dirty: true})
		} else {
			c.send(&coherence.Msg{Type: coherence.XPutS, Addr: e.Addr, Src: c.id, Dst: c.l2})
		}
		c.cache.Invalidate(e.Addr)
	}
	if pending == 0 {
		if done != nil {
			c.eng.Schedule(1, done)
		}
		return
	}
	remaining := pending
	prev := c.onFlush
	c.onFlush = func() {
		if prev != nil {
			prev()
		}
		remaining--
		if remaining == 0 && done != nil {
			done()
		}
	}
}

func (c *WeakL1) handleData(m *coherence.Msg) {
	e := c.cache.Peek(m.Addr)
	if e == nil || e.V.state != NB || e.V.op.Type == coherence.MsgInvalid {
		panic(fmt.Sprintf("%s: data with no pending get: %v", c.name, m))
	}
	op := e.V.op
	e.V.op = coherence.Msg{}
	// Keep locally-written bytes on an upgrade: the weak model merges at
	// flush time, and our own writes must not be lost.
	if e.V.data == nil || e.V.state != NM {
		e.V.data = m.Data.Copy()
	}
	if m.Type == coherence.XDataM {
		e.V.state = NM
	} else {
		e.V.state = NS
	}
	if op.Type == coherence.ReqStore {
		e.V.state = NM
		e.V.data[op.Addr.Offset()] = op.Val
		c.respond(&op, 0)
	} else {
		c.respond(&op, e.V.data[op.Addr.Offset()])
	}
	c.settledWeak(m.Addr.Line())
}

func (c *WeakL1) handleWBAck(m *coherence.Msg) {
	if c.flushing == 0 {
		panic(fmt.Sprintf("%s: WBAck with no writeback", c.name))
	}
	c.flushing--
	if c.onFlush != nil {
		cb := c.onFlush
		if c.flushing == 0 {
			c.onFlush = nil
		}
		cb()
	}
	c.settledWeak(m.Addr.Line())
}

// handleInv: the shared L2 recalls the line on the host's behalf. This
// is the one flow where even the weak hierarchy must cooperate: host
// coherence is not negotiable.
func (c *WeakL1) handleInv(m *coherence.Msg) {
	line := m.Addr.Line()
	e := c.cache.Peek(m.Addr)
	if e == nil || e.V.state == NB {
		c.send(&coherence.Msg{Type: coherence.XInvAck, Addr: line, Src: c.id, Dst: c.l2})
		return
	}
	if e.V.state == NM {
		c.send(&coherence.Msg{Type: coherence.XInvWB, Addr: line, Src: c.id, Dst: c.l2,
			Data: e.V.data.Copy(), Dirty: true})
	} else {
		c.send(&coherence.Msg{Type: coherence.XInvAck, Addr: line, Src: c.id, Dst: c.l2})
	}
	c.cache.Invalidate(m.Addr)
	c.settledWeak(line)
}

// respond completes a core operation after the hit latency.
func (c *WeakL1) respond(op *coherence.Msg, val byte) {
	r := op.Completion(c.id, val)
	c.fab.SendAfter(c.cfg.HitLat, &r)
}

func (c *WeakL1) settledWeak(line mem.Addr) {
	if next, ok := c.waiting.Pop(line); ok {
		c.fab.After(0, &next, c.recvFn)
	}
	for i := range c.stalledOps {
		c.fab.After(0, &c.stalledOps[i], c.recvFn)
	}
	c.stalledOps = c.stalledOps[:0]
}

// Outstanding reports open transactions.
func (c *WeakL1) Outstanding() int {
	n := c.flushing + len(c.stalledOps) + c.waiting.Len()
	c.cache.Visit(func(e *cacheset.Entry[innerLine]) {
		if e.V.state == NB {
			n++
		}
	})
	return n
}
