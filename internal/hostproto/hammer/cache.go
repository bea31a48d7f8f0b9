package hammer

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// cLine is the protocol payload of one private-cache line.
type cLine struct {
	state CState
	data  *mem.Block
	dirty bool // modified relative to memory
	// Open-transaction bookkeeping (response counting).
	expected  int
	got       int
	dataCount int
	shared    bool
	cacheData *mem.Block
	cacheDirt bool
	memData   *mem.Block
	noExcl    bool          // GetS_only: never take E
	op        coherence.Msg // CPU operation of the open Get (MsgInvalid when none)
}

// Cache is a private combined L1/L2 in the Hammer-like protocol.
type Cache struct {
	id   coherence.NodeID
	name string
	fab  *network.Fabric
	cfg  Config
	dir  coherence.NodeID
	sink coherence.ErrorSink
	// responses is how many responses every request collects:
	// one per peer cache plus the speculative memory data.
	responses int

	cache      *cacheset.Cache[cLine]
	wb         map[mem.Addr]*cLine
	waiting    coherence.LineQueue[coherence.Msg]
	stalledOps []coherence.Msg
	// recvFn is c.Recv bound once, for fabric.After replays.
	recvFn func(*coherence.Msg)

	// Cov records (state, event) coverage.
	Cov *coherence.Coverage
	// NacksSunk counts unexpected Nacks tolerated under TxnMods.
	NacksSunk uint64
}

// NewCache builds and registers a private cache. responses must be
// (number of peer caches) + 1.
func NewCache(id coherence.NodeID, name string, fab *network.Fabric,
	dir coherence.NodeID, responses int, cfg Config, sink coherence.ErrorSink) *Cache {
	c := &Cache{
		id: id, name: name, fab: fab, cfg: cfg, dir: dir, sink: sink,
		responses: responses,
		cache:     cacheset.New[cLine](cfg.Sets, cfg.Ways),
		wb:        make(map[mem.Addr]*cLine),
		Cov:       NewCacheCoverage(),
	}
	c.recvFn = c.Recv
	fab.Register(c)
	return c
}

// cacheTable is the hammer.cache class table.
var cacheTable = func() *coherence.Table {
	t := coherence.NewTable("hammer.cache", cStateNames[:]...)
	type pe struct{ s, e string }
	var pairs []pe
	for _, s := range []string{"I", "S", "E", "O", "M"} {
		pairs = append(pairs, pe{s, evLoad}, pe{s, evStore})
	}
	for _, s := range []string{"S", "E", "O", "M"} {
		pairs = append(pairs, pe{s, evReplacement})
	}
	for _, s := range []string{"I", "S", "E", "O", "M", "IS", "IM", "SM", "OM", "MI", "OI", "EI", "II"} {
		pairs = append(pairs, pe{s, "H:FwdGetS"}, pe{s, "H:FwdGetSOnly"}, pe{s, "H:FwdGetM"})
	}
	for _, s := range []string{"IS", "IM", "SM", "OM"} {
		pairs = append(pairs, pe{s, "H:Data"}, pe{s, "H:Ack"}, pe{s, "H:MemData"})
	}
	for _, s := range []string{"MI", "OI", "EI"} {
		pairs = append(pairs, pe{s, "H:WBAck"})
	}
	pairs = append(pairs, pe{"II", "H:Nack"}, pe{"II", "H:WBAck"})
	for _, p := range pairs {
		t.Declare(p.s, p.e)
	}
	return t
}()

// NewCacheCoverage declares reachable (state, event) pairs.
func NewCacheCoverage() *coherence.Coverage { return cacheTable.New() }

// ID implements coherence.Controller.
func (c *Cache) ID() coherence.NodeID { return c.id }

// Name implements coherence.Controller.
func (c *Cache) Name() string { return c.name }

func (c *Cache) protocolError(state string, m *coherence.Msg) {
	if c.cfg.TxnMods {
		c.sink.ReportError(coherence.ProtocolError{
			Where: c.name, Code: "HOST.Cache.Unexpected", Addr: m.Addr,
			Detail: fmt.Sprintf("state %s event %v", state, m.Type),
		})
		return
	}
	panic(fmt.Sprintf("%s: unexpected %v in state %s", c.name, m, state))
}

// Recv implements coherence.Controller.
func (c *Cache) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		c.handleCPU(m)
	case coherence.HFwdGetS, coherence.HFwdGetSOnly, coherence.HFwdGetM:
		c.handleForward(m)
	case coherence.HData, coherence.HAck, coherence.HMemData:
		c.handleResponse(m)
	case coherence.HWBAck:
		c.handleWBAck(m)
	case coherence.HNack:
		c.handleNack(m)
	default:
		c.protocolError("?", m)
	}
}

func (c *Cache) send(m *coherence.Msg) { c.fab.Send(m) }

// --- CPU side ---

func (c *Cache) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, busy := c.wb[line]; busy {
		c.waiting.Park(line, *m)
		return
	}
	e := c.cache.Lookup(m.Addr)
	if e != nil && !e.V.state.Stable() {
		c.waiting.Park(line, *m)
		return
	}
	isStore := m.Type == coherence.ReqStore
	ev := coherence.EvLoad
	if isStore {
		ev = coherence.EvStore
	}
	if e == nil {
		c.Cov.Record(int(CI), ev)
		e = c.allocate(m)
		if e == nil {
			return
		}
		if isStore {
			c.issueGet(e, m, coherence.HGetM, CIM)
		} else {
			c.issueGet(e, m, coherence.HGetS, CIS)
		}
		return
	}
	st := e.V.state
	c.Cov.Record(int(st), ev)
	switch {
	case !isStore: // load hit in S/E/O/M
		c.respond(m, e.V.data[m.Addr.Offset()])
	case st == CM:
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
	case st == CE:
		e.V.state = CM
		e.V.dirty = true
		e.V.data[m.Addr.Offset()] = m.Val
		c.respond(m, 0)
	case st == CS:
		c.issueGet(e, m, coherence.HGetM, CSM)
	case st == CO:
		c.issueGet(e, m, coherence.HGetM, COM)
	}
}

func (c *Cache) issueGet(e *cacheset.Entry[cLine], op *coherence.Msg, ty coherence.MsgType, next CState) {
	e.V.state = next
	e.V.expected = c.responses
	e.V.got = 0
	e.V.dataCount = 0
	e.V.shared = false
	e.V.cacheData = nil
	e.V.memData = nil
	e.V.noExcl = ty == coherence.HGetSOnly
	e.V.op = *op
	c.send(&coherence.Msg{Type: ty, Addr: e.Addr, Src: c.id, Dst: c.dir})
}

func (c *Cache) allocate(m *coherence.Msg) *cacheset.Entry[cLine] {
	e, victim, ok := c.cache.Allocate(m.Addr, func(e *cacheset.Entry[cLine]) bool {
		return e.V.state.Stable()
	})
	if !ok {
		c.stalledOps = append(c.stalledOps, *m)
		return nil
	}
	if victim != nil {
		c.evict(victim.Addr, &victim.V)
	}
	e.V = cLine{state: CI}
	return e
}

func (c *Cache) evict(addr mem.Addr, v *cLine) {
	c.Cov.Record(int(v.state), coherence.EvReplacement)
	switch v.state {
	case CS:
		// Hammer allows silent eviction of shared blocks.
	case CM, CO, CE:
		next := map[CState]CState{CM: CMI, CO: COI, CE: CEI}[v.state]
		c.wb[addr] = &cLine{state: next, data: v.data, dirty: v.dirty}
		c.send(&coherence.Msg{Type: coherence.HPut, Addr: addr, Src: c.id, Dst: c.dir})
	default:
		panic(fmt.Sprintf("%s: evicting line in state %v", c.name, v.state))
	}
}

// respond completes a CPU operation after the hit latency.
func (c *Cache) respond(op *coherence.Msg, val byte) {
	r := op.Completion(c.id, val)
	c.fab.SendAfter(c.cfg.HitLat, &r)
}

// --- forwards (broadcast requests from the directory) ---

func (c *Cache) handleForward(m *coherence.Msg) {
	line := m.Addr.Line()
	var st CState
	var data *mem.Block
	var dirty bool
	var e *cacheset.Entry[cLine]
	wl, inWB := c.wb[line]
	if inWB {
		st, data, dirty = wl.state, wl.data, wl.dirty
	} else if e = c.cache.Peek(m.Addr); e != nil {
		st, data, dirty = e.V.state, e.V.data, e.V.dirty
	} else {
		st = CI
	}
	c.Cov.RecordMsg(int(st), m.Type)

	getM := m.Type == coherence.HFwdGetM
	if st.owned() {
		c.send(&coherence.Msg{Type: coherence.HData, Addr: line, Src: c.id, Dst: m.Requestor,
			Data: data.Copy(), Dirty: dirty, Shared: true})
		switch {
		case getM:
			// Ownership moves to the requestor.
			switch st {
			case CM, CO, CE:
				c.cache.Invalidate(m.Addr)
				c.settled(line)
			case COM:
				e.V.state = CIM // lost our copy; our own GetM is still queued
			case CMI, COI, CEI:
				wl.state = CII
			}
		default: // FwdGetS / FwdGetSOnly: owner downgrades to O, keeps data
			switch st {
			case CM, CE:
				e.V.state = CO
				// CO, COM, CMI, COI, CEI: unchanged; still the owner.
			}
		}
		return
	}
	// Non-owners ack, asserting Shared when they hold an S copy.
	hasS := st == CS || st == CSM
	c.send(&coherence.Msg{Type: coherence.HAck, Addr: line, Src: c.id, Dst: m.Requestor,
		Shared: hasS && !getM})
	if getM {
		switch st {
		case CS:
			c.cache.Invalidate(m.Addr)
			c.settled(line)
		case CSM:
			e.V.state = CIM
		}
	}
}

// --- responses to our own requests ---

func (c *Cache) handleResponse(m *coherence.Msg) {
	e := c.cache.Peek(m.Addr)
	if e == nil || e.V.op.Type == coherence.MsgInvalid {
		c.protocolError("I", m)
		return
	}
	st := e.V.state
	switch st {
	case CIS, CIM, CSM, COM:
	default:
		c.protocolError(st.String(), m)
		return
	}
	c.Cov.RecordMsg(int(st), m.Type)
	switch m.Type {
	case coherence.HData:
		e.V.dataCount++
		if e.V.dataCount > 1 && !c.cfg.TxnMods {
			panic(fmt.Sprintf("%s: multiple data responses for %v", c.name, m.Addr))
		}
		if e.V.dataCount > 1 {
			c.sink.ReportError(coherence.ProtocolError{Where: c.name,
				Code: "HOST.MultiData", Addr: m.Addr, Detail: "duplicate data response tolerated"})
		}
		if e.V.cacheData == nil && m.Data != nil {
			e.V.cacheData = m.Data.Copy()
			e.V.cacheDirt = m.Dirty
		}
		e.V.shared = true // an owner elsewhere means the block is shared
	case coherence.HAck:
		if m.Shared {
			e.V.shared = true
		}
	case coherence.HMemData:
		e.V.memData = m.Data.Copy()
	}
	e.V.got++
	if e.V.got < e.V.expected {
		return
	}
	c.completeGet(e)
}

func (c *Cache) completeGet(e *cacheset.Entry[cLine]) {
	op := e.V.op
	st := e.V.state
	var data *mem.Block
	var dirty bool
	switch {
	case st == COM:
		// We are the owner: our copy is authoritative.
		data, dirty = e.V.data, e.V.dirty
	case e.V.cacheData != nil:
		data, dirty = e.V.cacheData, e.V.cacheDirt
	case e.V.memData != nil:
		data, dirty = e.V.memData, false
	default:
		// Response-counting tolerance: every response was an ack and
		// even memory data is missing (possible only under fuzzing with
		// TxnMods); complete with a zero block.
		if !c.cfg.TxnMods {
			panic(fmt.Sprintf("%s: request for %v completed without data", c.name, e.Addr))
		}
		c.sink.ReportError(coherence.ProtocolError{Where: c.name,
			Code: "HOST.NoData", Addr: e.Addr, Detail: "request completed with zero block"})
		data, dirty = mem.Zero(), false
	}
	tookShared := false
	if st == CIS {
		if e.V.shared || e.V.noExcl {
			e.V.state = CS
			tookShared = true
		} else {
			e.V.state = CE
		}
		e.V.data = data.Copy()
		e.V.dirty = dirty
		if tookShared {
			e.V.dirty = false // the owner retains responsibility
		}
		c.respond(&op, e.V.data[op.Addr.Offset()])
	} else {
		e.V.state = CM
		e.V.data = data.Copy()
		e.V.dirty = true
		e.V.data[op.Addr.Offset()] = op.Val
		c.respond(&op, 0)
	}
	e.V.op = coherence.Msg{}
	e.V.cacheData = nil
	e.V.memData = nil
	c.send(&coherence.Msg{Type: coherence.HUnblock, Addr: e.Addr, Src: c.id, Dst: c.dir,
		Shared: tookShared})
	c.settled(e.Addr)
}

// --- writeback acks and nacks ---

func (c *Cache) handleWBAck(m *coherence.Msg) {
	line := m.Addr.Line()
	wl, ok := c.wb[line]
	if !ok {
		c.protocolError("I", m)
		return
	}
	c.Cov.RecordMsg(int(wl.state), m.Type)
	switch wl.state {
	case CMI, COI, CEI:
		c.send(&coherence.Msg{Type: coherence.HWBData, Addr: line, Src: c.id, Dst: c.dir,
			Data: wl.data.Copy(), Dirty: wl.dirty})
		delete(c.wb, line)
		c.settled(line)
	case CII:
		// We no longer own the block; the WBAck is for a Put the
		// directory accepted before ownership moved — complete with a
		// clean (ignored) writeback so the directory can close.
		c.send(&coherence.Msg{Type: coherence.HWBData, Addr: line, Src: c.id, Dst: c.dir,
			Data: wl.data.Copy(), Dirty: false})
		delete(c.wb, line)
		c.settled(line)
	default:
		c.protocolError(wl.state.String(), m)
	}
}

func (c *Cache) handleNack(m *coherence.Msg) {
	line := m.Addr.Line()
	if wl, ok := c.wb[line]; ok {
		c.Cov.RecordMsg(int(wl.state), m.Type)
		if wl.state == CII {
			// Normal race resolution: ownership moved while our Put was
			// queued; the data already went to the new owner.
			delete(c.wb, line)
			c.settled(line)
			return
		}
		// A Nack in MI/OI/EI means the directory disagrees about
		// ownership without us having seen a FwdGetM: impossible in a
		// correct system, possible after accelerator-corrupted state.
		if !c.cfg.TxnMods {
			panic(fmt.Sprintf("%s: Nack in %v for %v", c.name, wl.state, line))
		}
		c.NacksSunk++
		c.sink.ReportError(coherence.ProtocolError{Where: c.name,
			Code: "HOST.UnexpectedNack", Addr: line,
			Detail: fmt.Sprintf("Nack sunk in state %v; dropping writeback", wl.state)})
		delete(c.wb, line)
		c.settled(line)
		return
	}
	// Paper §3.2.1: host caches must sink unexpected Nacks and raise an
	// error instead of crashing.
	st := CI
	if e := c.cache.Peek(m.Addr); e != nil {
		st = e.V.state
	}
	c.Cov.RecordMsg(int(st), m.Type)
	if !c.cfg.TxnMods {
		panic(fmt.Sprintf("%s: unexpected Nack in state %s for %v", c.name, st, line))
	}
	c.NacksSunk++
	c.sink.ReportError(coherence.ProtocolError{Where: c.name,
		Code: "HOST.UnexpectedNack", Addr: line, Detail: "Nack sunk in state " + st.String()})
}

// --- wakeups, audit ---

func (c *Cache) settled(line mem.Addr) {
	if next, ok := c.waiting.Pop(line); ok {
		c.fab.After(0, &next, c.recvFn)
	}
	for i := range c.stalledOps {
		c.fab.After(0, &c.stalledOps[i], c.recvFn)
	}
	c.stalledOps = c.stalledOps[:0]
}

// Outstanding reports open transactions.
func (c *Cache) Outstanding() int {
	n := len(c.wb) + len(c.stalledOps) + c.waiting.Len()
	c.cache.Visit(func(e *cacheset.Entry[cLine]) {
		if !e.V.state.Stable() {
			n++
		}
	})
	return n
}

// AuditLine reports the stable view for invariant checks.
func (c *Cache) AuditLine(addr mem.Addr) (present bool, st CState, data *mem.Block, dirty bool) {
	e := c.cache.Peek(addr)
	if e == nil || !e.V.state.Stable() || e.V.state == CI {
		return false, CI, nil, false
	}
	return true, e.V.state, e.V.data, e.V.dirty
}

// VisitStable reports every stable valid line for invariant checks.
func (c *Cache) VisitStable(fn func(addr mem.Addr, st CState, data *mem.Block, dirty bool)) {
	c.cache.Visit(func(e *cacheset.Entry[cLine]) {
		if e.V.state.Stable() && e.V.state != CI {
			fn(e.Addr, e.V.state, e.V.data, e.V.dirty)
		}
	})
}

// WBPending reports buffered writebacks (zero at quiesce).
func (c *Cache) WBPending() int { return len(c.wb) }
