package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// aLine is the payload of one accelerator L1 line.
type aLine struct {
	state AState
	data  *mem.Block
	// op records what the outstanding request was (B has a single
	// name but, as the paper notes for host protocols too, transients
	// may carry extra information); MsgInvalid when none.
	op coherence.Msg
}

// L1Cache is the single-level accelerator cache of paper Table 1:
// MESI stable states, a single transient state B, five requests out,
// four responses in, one host request (Inv), three responses out.
type L1Cache struct {
	id   coherence.NodeID
	name string
	fab  *network.Fabric
	cfg  Config
	xg   coherence.NodeID // the Crossing Guard endpoint

	cache      *cacheset.Cache[aLine]
	wb         map[mem.Addr]*aLine // put-origin B entries
	waiting    coherence.LineQueue[coherence.Msg]
	stalledOps []coherence.Msg
	// recvFn is c.Recv bound once, for fabric.After replays.
	recvFn func(*coherence.Msg)

	// epoch is the guard epoch this cache operates under (0 until the
	// first device reset). Guard messages from another epoch are
	// pre-reset stragglers and are dropped, never dispatched — a stale
	// grant must not be mistaken for an answer to a fresh request.
	epoch uint32
	// StaleDrops counts guard messages dropped for a stale epoch; Nacked
	// counts transactions refused by a quarantined guard.
	StaleDrops, Nacked uint64

	// Cov records (state, event) coverage; its declaration set IS
	// paper Table 1, so unexpected transitions fail conformance.
	Cov *coherence.Coverage
}

// NewL1Cache builds and registers a Table 1 accelerator cache.
func NewL1Cache(id coherence.NodeID, name string, fab *network.Fabric,
	xg coherence.NodeID, cfg Config) *L1Cache {
	c := &L1Cache{
		id: id, name: name, fab: fab, cfg: cfg, xg: xg,
		cache: cacheset.New[aLine](cfg.L1Sets, cfg.L1Ways),
		wb:    make(map[mem.Addr]*aLine),
		Cov:   NewTable1Coverage(),
	}
	c.recvFn = c.Recv
	fab.Register(c)
	return c
}

// table1 is the accel.L1 class table: its declaration set IS paper
// Table 1.
var table1 = func() *coherence.Table {
	t := coherence.NewTable("accel.L1", aStateNames[:]...)
	for _, p := range Table1Pairs() {
		t.Declare(p[0], p[1])
	}
	return t
}()

// NewTable1Coverage declares exactly the transitions of paper Table 1.
func NewTable1Coverage() *coherence.Coverage { return table1.New() }

// Table1Pairs returns the (state, event) pairs paper Table 1 defines
// (every cell that is not "impossible").
func Table1Pairs() [][2]string {
	var pairs [][2]string
	add := func(s string, evs ...string) {
		for _, e := range evs {
			pairs = append(pairs, [2]string{s, e})
		}
	}
	add("M", evLoad, evStore, evReplacement, "A:Inv")
	add("E", evLoad, evStore, evReplacement, "A:Inv")
	add("S", evLoad, evStore, evReplacement, "A:Inv")
	add("I", evLoad, evStore, "A:Inv")
	add("B", evLoad, evStore, evReplacement, "A:Inv", "A:DataM", "A:DataE", "A:DataS", "A:WBAck")
	return pairs
}

// ID implements coherence.Controller.
func (c *L1Cache) ID() coherence.NodeID { return c.id }

// Name implements coherence.Controller.
func (c *L1Cache) Name() string { return c.name }

// Recv implements coherence.Controller.
func (c *L1Cache) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		c.handleCPU(m)
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleData(m)
	case coherence.AWBAck:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleWBAck(m)
	case coherence.AInv:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleInv(m)
	case coherence.ANack:
		if m.Epoch != c.epoch {
			c.StaleDrops++
			return
		}
		c.handleNack(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", c.name, m))
	}
}

// Reset reinitializes the cache under a new guard epoch (the recovery
// protocol's device-reset step): every line returns to Invalid and every
// in-flight transaction is forgotten. Waiting core operations are
// dropped without responses — the sequencer aborts them in the same
// reset. Coverage is cumulative and survives the reset.
func (c *L1Cache) Reset(epoch uint32) {
	c.epoch = epoch
	c.cache = cacheset.New[aLine](c.cfg.L1Sets, c.cfg.L1Ways)
	c.wb = make(map[mem.Addr]*aLine)
	c.waiting.Reset()
	c.stalledOps = nil
}

// handleNack closes a transaction a quarantined guard refused. No
// response reaches the waiting core operation: the device is about to be
// reset, and the sequencer abort drops the operation with it.
func (c *L1Cache) handleNack(m *coherence.Msg) {
	line := m.Addr.Line()
	c.Nacked++
	if _, ok := c.wb[line]; ok {
		delete(c.wb, line)
		c.settled(line)
		return
	}
	if e := c.cache.Peek(m.Addr); e != nil && e.V.state == AB {
		c.cache.Invalidate(m.Addr)
		c.settled(line)
	}
}

func (c *L1Cache) send(m *coherence.Msg) { c.fab.Send(m) }

// --- accelerator-core side ---

func (c *L1Cache) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, busy := c.wb[line]; busy {
		// Table 1: B stalls loads, stores, and replacements.
		c.Cov.Record(int(AB), opEv(m))
		c.waiting.Park(line, *m)
		return
	}
	e := c.cache.Lookup(m.Addr)
	if e != nil && e.V.state == AB {
		c.Cov.Record(int(AB), opEv(m))
		c.waiting.Park(line, *m)
		return
	}
	isStore := m.Type == coherence.ReqStore
	if e == nil {
		c.Cov.Record(int(AI), opEv(m))
		e = c.allocate(m)
		if e == nil {
			return
		}
		// I + Load -> issue GetS / B ;  I + Store -> issue GetM / B.
		// A VI-flavored cache issues only GetM (paper §2.1).
		ty := coherence.AGetS
		if isStore || c.cfg.Flavor == FlavorVI {
			ty = coherence.AGetM
		}
		e.V.state = AB
		e.V.op = *m
		c.send(&coherence.Msg{Type: ty, Addr: line, Src: c.id, Dst: c.xg, Epoch: c.epoch})
		return
	}
	st := e.V.state
	c.Cov.Record(int(st), opEv(m))
	switch {
	case !isStore: // Load hit in M/E/S.
		c.respond(m, e.V.data[m.Addr.Offset()])
	case st == AM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
	case st == AE:
		// E + Store -> hit / M (silent upgrade).
		e.V.state = AM
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
	case st == AS:
		// S + Store -> issue GetM / B.
		e.V.state = AB
		e.V.op = *m
		c.send(&coherence.Msg{Type: coherence.AGetM, Addr: line, Src: c.id, Dst: c.xg, Epoch: c.epoch})
	}
}

func (c *L1Cache) allocate(m *coherence.Msg) *cacheset.Entry[aLine] {
	e, victim, ok := c.cache.Allocate(m.Addr, func(e *cacheset.Entry[aLine]) bool {
		return e.V.state.Stable()
	})
	if !ok {
		c.stalledOps = append(c.stalledOps, *m)
		return nil
	}
	if victim != nil {
		c.evict(victim.Addr, &victim.V)
	}
	e.V = aLine{state: AI}
	return e
}

// evict issues the replacement row of Table 1: PutM from M, PutE from E,
// PutS from S — Put data rides along (no multi-phase commit).
func (c *L1Cache) evict(addr mem.Addr, v *aLine) {
	c.Cov.Record(int(v.state), coherence.EvReplacement)
	var ty coherence.MsgType
	var data *mem.Block
	switch v.state {
	case AM:
		ty, data = coherence.APutM, v.data.Copy()
	case AE:
		ty, data = coherence.APutE, v.data.Copy()
		if c.cfg.Flavor == FlavorMSI || c.cfg.Flavor == FlavorVI {
			ty = coherence.APutM // degraded designs send only dirty Puts
		}
	case AS:
		ty = coherence.APutS
	default:
		panic(fmt.Sprintf("%s: evicting %v", c.name, v.state))
	}
	c.wb[addr] = &aLine{state: AB, data: v.data}
	c.send(&coherence.Msg{Type: ty, Addr: addr, Src: c.id, Dst: c.xg, Data: data,
		Dirty: ty == coherence.APutM, Epoch: c.epoch})
}

// respond completes a core operation after the hit latency.
func (c *L1Cache) respond(op *coherence.Msg, val byte) {
	r := op.Completion(c.id, val)
	c.fab.SendAfter(c.cfg.HitLat, &r)
}

// --- Crossing Guard side ---

func (c *L1Cache) handleData(m *coherence.Msg) {
	e := c.cache.Peek(m.Addr)
	if e == nil || e.V.state != AB || e.V.op.Type == coherence.MsgInvalid {
		panic(fmt.Sprintf("%s: data %v with no pending get", c.name, m))
	}
	c.Cov.RecordMsg(int(AB), m.Type)
	st := AS
	switch m.Type {
	case coherence.ADataM:
		st = AM
	case coherence.ADataE:
		st = AE
		// Degraded designs treat DataE as DataM (paper §2.1).
		if c.cfg.Flavor == FlavorMSI || c.cfg.Flavor == FlavorVI {
			st = AM
		}
	}
	op := e.V.op
	e.V.state = st
	e.V.data = m.Data.Copy()
	e.V.op = coherence.Msg{}
	if op.Type == coherence.ReqStore {
		if st == AS {
			// DataS answered our GetM? The interface forbids it; only a
			// buggy guard could do this.
			panic(fmt.Sprintf("%s: DataS for a store at %v", c.name, m.Addr))
		}
		if st == AE {
			e.V.state = AM
		}
		e.V.data[op.Addr.Offset()] = op.Val
		c.respond(&op, 0)
	} else {
		c.respond(&op, e.V.data[op.Addr.Offset()])
	}
	c.settled(m.Addr.Line())
}

func (c *L1Cache) handleWBAck(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, ok := c.wb[line]; !ok {
		panic(fmt.Sprintf("%s: WBAck with no writeback: %v", c.name, m))
	}
	c.Cov.RecordMsg(int(AB), m.Type)
	delete(c.wb, line)
	c.settled(line)
}

// handleInv implements the Invalidate column of Table 1.
func (c *L1Cache) handleInv(m *coherence.Msg) {
	line := m.Addr.Line()
	if wl, ok := c.wb[line]; ok {
		// B (put outstanding): send InvAck, take no further action;
		// Crossing Guard resolves the Put/Inv race.
		_ = wl
		c.Cov.RecordMsg(int(AB), m.Type)
		c.sendToXG(coherence.AInvAck, line, nil, false)
		return
	}
	e := c.cache.Peek(m.Addr)
	if e == nil {
		c.Cov.RecordMsg(int(AI), m.Type)
		c.sendToXG(coherence.AInvAck, line, nil, false)
		return
	}
	c.Cov.RecordMsg(int(e.V.state), m.Type)
	switch e.V.state {
	case AM:
		c.sendToXG(coherence.ADirtyWB, line, e.V.data.Copy(), true)
		c.cache.Invalidate(m.Addr)
		c.settled(line)
	case AE:
		c.sendToXG(coherence.ACleanWB, line, e.V.data.Copy(), false)
		c.cache.Invalidate(m.Addr)
		c.settled(line)
	case AS:
		c.sendToXG(coherence.AInvAck, line, nil, false)
		c.cache.Invalidate(m.Addr)
		c.settled(line)
	case AB:
		c.sendToXG(coherence.AInvAck, line, nil, false)
	}
}

func (c *L1Cache) sendToXG(ty coherence.MsgType, line mem.Addr, data *mem.Block, dirty bool) {
	c.send(&coherence.Msg{Type: ty, Addr: line, Src: c.id, Dst: c.xg, Data: data, Dirty: dirty,
		Epoch: c.epoch})
}

func (c *L1Cache) settled(line mem.Addr) {
	if next, ok := c.waiting.Pop(line); ok {
		c.fab.After(0, &next, c.recvFn)
	}
	for i := range c.stalledOps {
		c.fab.After(0, &c.stalledOps[i], c.recvFn)
	}
	c.stalledOps = c.stalledOps[:0]
}

// Outstanding reports open transactions.
func (c *L1Cache) Outstanding() int {
	n := len(c.wb) + len(c.stalledOps) + c.waiting.Len()
	c.cache.Visit(func(e *cacheset.Entry[aLine]) {
		if e.V.state == AB {
			n++
		}
	})
	return n
}

// AuditLine reports the stable view for invariant checks.
func (c *L1Cache) AuditLine(addr mem.Addr) (present bool, st AState, data *mem.Block) {
	e := c.cache.Peek(addr)
	if e == nil || e.V.state == AB || e.V.state == AI {
		return false, AI, nil
	}
	return true, e.V.state, e.V.data
}

func opEv(m *coherence.Msg) int {
	if m.Type == coherence.ReqStore {
		return coherence.EvStore
	}
	return coherence.EvLoad
}

// VisitStable reports every stable valid line for invariant checks.
func (c *L1Cache) VisitStable(fn func(addr mem.Addr, st AState, data *mem.Block)) {
	c.cache.Visit(func(e *cacheset.Entry[aLine]) {
		if e.V.state.Stable() && e.V.state != AI {
			fn(e.Addr, e.V.state, e.V.data)
		}
	})
}
