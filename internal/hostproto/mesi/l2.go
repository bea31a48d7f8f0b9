package mesi

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
)

// l2Txn is an open transaction on one L2 line. The L2 processes one
// transaction per line at a time; later requests queue.
type l2Txn struct {
	kind        txnKind
	requestor   coherence.NodeID
	req         coherence.Msg // the transaction's own copy of the request (replayed after a fetch)
	oldOwner    coherence.NodeID
	unblocked   bool
	needCopy    bool
	copyIn      bool
	invalidated map[coherence.NodeID]bool // sharers told to ack the requestor
	recallWait  map[coherence.NodeID]bool
}

// l2Line is the protocol payload of one L2 line.
type l2Line struct {
	state   L2State
	data    *mem.Block
	dirty   bool // relative to memory
	sharers map[coherence.NodeID]bool
	owner   coherence.NodeID
	txn     *l2Txn
}

// L2 is the shared inclusive L2 with its integrated directory and the
// memory controller behind it.
type L2 struct {
	id   coherence.NodeID
	name string
	eng  *sim.Engine
	fab  *network.Fabric
	cfg  Config
	sink coherence.ErrorSink

	cache   *cacheset.Cache[l2Line]
	memory  *mem.Memory
	waiting coherence.LineQueue[coherence.Msg]
	stalled []coherence.Msg
	// recvFn is l.Recv bound once, for fabric.After replays.
	recvFn func(*coherence.Msg)

	// Cov records (state, event) coverage.
	Cov *coherence.Coverage
	// Race/tolerance counters (legitimate protocol races, not errors).
	StrayPuts, StrayCopies, StrayAcks uint64
}

// NewL2 builds and registers the shared L2 over the given backing memory.
func NewL2(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	memory *mem.Memory, cfg Config, sink coherence.ErrorSink) *L2 {
	l := &L2{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, sink: sink,
		cache:  cacheset.New[l2Line](cfg.L2Sets, cfg.L2Ways),
		memory: memory,
		Cov:    NewL2Coverage(),
	}
	l.recvFn = l.Recv
	fab.Register(l)
	return l
}

// l2States are the mesi.L2 coverage states: NP (no entry), then each
// L2State without and with an open transaction, indexed by covState.
var l2States = []string{"NP", "SS", "MT", "SS+busy", "MT+busy"}

// l2Table is the mesi.L2 class table.
var l2Table = func() *coherence.Table {
	t := coherence.NewTable("mesi.L2", l2States...)
	t.DeclareAll(l2States, []string{
		"M:GetS", "M:GetM", "M:GetInstr", "M:PutM", "M:PutS",
		"M:Unblock", "M:CopyToL2", "M:InvAckToL2",
	})
	return t
}()

// NewL2Coverage declares reachable (state, event) pairs for the L2.
func NewL2Coverage() *coherence.Coverage { return l2Table.New() }

// ID implements coherence.Controller.
func (l *L2) ID() coherence.NodeID { return l.id }

// Name implements coherence.Controller.
func (l *L2) Name() string { return l.name }

// covState returns the index in l2States of the line held in e.
func (l *L2) covState(e *cacheset.Entry[l2Line]) int {
	if e == nil {
		return 0
	}
	s := 1 + int(e.V.state)
	if e.V.txn != nil {
		s += 2
	}
	return s
}

func (l *L2) stateName(e *cacheset.Entry[l2Line]) string { return l2States[l.covState(e)] }

func (l *L2) protocolError(state string, m *coherence.Msg) {
	if l.cfg.TxnMods {
		l.sink.ReportError(coherence.ProtocolError{
			Where: l.name, Code: "HOST.L2.Unexpected", Addr: m.Addr,
			Detail: fmt.Sprintf("state %s event %v", state, m.Type),
		})
		return
	}
	panic(fmt.Sprintf("%s: unexpected %v in state %s", l.name, m, state))
}

// Recv implements coherence.Controller.
func (l *L2) Recv(m *coherence.Msg) {
	e := l.cache.Peek(m.Addr)
	l.Cov.RecordMsg(l.covState(e), m.Type)
	switch m.Type {
	case coherence.MGetS, coherence.MGetM, coherence.MGetInstr:
		l.handleGet(m)
	case coherence.MPutM:
		l.handlePut(m)
	case coherence.MPutS:
		l.handlePutS(m)
	case coherence.MUnblock:
		l.handleUnblock(m)
	case coherence.MCopyToL2:
		l.handleCopy(m)
	case coherence.MInvAckToL2:
		l.handleRecallAck(m)
	default:
		l.protocolError(l.stateName(e), m)
	}
}

func (l *L2) send(m *coherence.Msg) { l.fab.Send(m) }

// after runs fn after the L2 lookup latency.
func (l *L2) after(d sim.Time, fn func()) { l.eng.Schedule(d, fn) }

// --- Get handling ---

func (l *L2) handleGet(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if (e != nil && e.V.txn != nil) || l.waiting.Blocked(addr, m) {
		// Strict per-line FIFO: nothing may overtake queued requests.
		l.waiting.Park(addr, *m)
		return
	}
	if e == nil {
		l.missFetch(m)
		return
	}
	// Reserve the line for the duration of the lookup latency so that a
	// second request cannot start a racing transaction.
	t := &l2Txn{kind: txnLookup, requestor: m.Src, req: *m, oldOwner: coherence.NodeNone}
	e.V.txn = t
	l.after(l.cfg.L2Lat, func() { l.serveHit(&t.req) })
}

// missFetch allocates a line and fetches it from memory; the original
// request is replayed when the data arrives.
func (l *L2) missFetch(m *coherence.Msg) {
	addr := m.Addr.Line()
	e, victim, ok := l.cache.Allocate(addr, func(e *cacheset.Entry[l2Line]) bool {
		return e.V.txn == nil && e.V.owner == coherence.NodeNone && len(e.V.sharers) == 0
	})
	if !ok {
		// Every way is either busy or still has L1 copies: recall the
		// LRU candidate with copies, then retry.
		l.startRecallInSet(addr)
		l.stalled = append(l.stalled, *m)
		return
	}
	if victim != nil && victim.V.dirty {
		l.memory.Write(victim.Addr, victim.V.data)
	}
	e.V = l2Line{state: L2SS, owner: coherence.NodeNone,
		sharers: make(map[coherence.NodeID]bool),
		txn:     &l2Txn{kind: txnFetch, requestor: m.Src, req: *m, oldOwner: coherence.NodeNone}}
	l.after(l.cfg.L2Lat+l.cfg.MemLat, func() {
		le := l.cache.Peek(addr)
		if le == nil || le.V.txn == nil || le.V.txn.kind != txnFetch {
			panic(fmt.Sprintf("%s: fetch completion for %v found no fetch txn", l.name, addr))
		}
		req := &le.V.txn.req
		le.V.data = l.memory.Read(addr)
		le.V.dirty = false
		le.V.txn = nil
		l.serveHit(req)
	})
}

// serveHit serves a Get against a present, idle line.
func (l *L2) serveHit(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		// The line moved under a replayed request; start over.
		l.fab.After(0, m, l.recvFn)
		return
	}
	// A lookup reservation resolves only for the request it reserved
	// for: the continuation passes &txn.req, compared by identity.
	if e.V.txn != nil && e.V.txn.kind == txnLookup && &e.V.txn.req == m {
		e.V.txn = nil // lookup reservation resolves into the real txn below
	} else if e.V.txn != nil {
		l.fab.After(0, m, l.recvFn)
		return
	}
	r := m.Src
	switch e.V.state {
	case L2MT:
		o := e.V.owner
		switch m.Type {
		case coherence.MGetS, coherence.MGetInstr:
			e.V.txn = &l2Txn{kind: txnGetS, requestor: r, oldOwner: o, needCopy: true}
			l.send(&coherence.Msg{Type: coherence.MFwdGetS, Addr: addr, Src: l.id, Dst: o, Requestor: r})
		case coherence.MGetM:
			e.V.txn = &l2Txn{kind: txnGetM, requestor: r, oldOwner: o}
			e.V.owner = r
			// Tell the requestor to expect exactly one response; the
			// data arrives directly from the old owner.
			l.send(&coherence.Msg{Type: coherence.MDataAcks, Addr: addr, Src: l.id, Dst: r, Acks: 1})
			l.send(&coherence.Msg{Type: coherence.MFwdGetM, Addr: addr, Src: l.id, Dst: o, Requestor: r})
		}
	case L2SS:
		switch m.Type {
		case coherence.MGetS, coherence.MGetInstr:
			if len(e.V.sharers) == 0 && m.Type == coherence.MGetS {
				// Exclusive grant: no other cache holds the line.
				e.V.state = L2MT
				e.V.owner = r
				e.V.txn = &l2Txn{kind: txnGetS, requestor: r, oldOwner: coherence.NodeNone}
				l.send(&coherence.Msg{Type: coherence.MDataE, Addr: addr, Src: l.id, Dst: r,
					Data: e.V.data.Copy()})
			} else {
				e.V.sharers[r] = true
				e.V.txn = &l2Txn{kind: txnGetS, requestor: r, oldOwner: coherence.NodeNone}
				l.send(&coherence.Msg{Type: coherence.MDataS, Addr: addr, Src: l.id, Dst: r,
					Data: e.V.data.Copy()})
			}
		case coherence.MGetM:
			inv := make(map[coherence.NodeID]bool)
			for _, s := range coherence.SortedNodes(e.V.sharers) {
				if s != r {
					inv[s] = true
					l.send(&coherence.Msg{Type: coherence.MInv, Addr: addr, Src: l.id, Dst: s, Requestor: r})
				}
			}
			e.V.sharers = make(map[coherence.NodeID]bool)
			e.V.owner = r
			e.V.state = L2MT
			e.V.txn = &l2Txn{kind: txnGetM, requestor: r, oldOwner: coherence.NodeNone, invalidated: inv}
			l.send(&coherence.Msg{Type: coherence.MDataAcks, Addr: addr, Src: l.id, Dst: r,
				Data: e.V.data.Copy(), Acks: len(inv)})
		}
	}
}

// --- writebacks ---

func (l *L2) handlePut(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		// Raced with a recall that already freed the line (or a stray
		// accelerator Put): ack and drop — the paper notes the MESI
		// host tolerates accelerator requests at any time unchanged.
		l.StrayPuts++
		l.ackPut(m)
		l.popWaiting(addr)
		return
	}
	if t := e.V.txn; t == nil && l.waiting.Blocked(addr, m) {
		l.waiting.Park(addr, *m)
		return
	} else if t != nil {
		switch {
		case m.Src == t.oldOwner:
			// Put raced with a forward we already sent; the data is
			// (or will be) supplied by the forward response.
			l.ackPut(m)
		case t.kind == txnRecall && t.recallWait[m.Src]:
			// Put raced with our recall; absorb it as the recall reply.
			delete(t.recallWait, m.Src)
			if m.Dirty {
				e.V.data = m.Data.Copy()
				e.V.dirty = true
			}
			l.ackPut(m)
			l.maybeFinishRecall(addr, e)
		default:
			l.waiting.Park(addr, *m)
		}
		return
	}
	switch {
	case e.V.owner == m.Src:
		if m.Data != nil {
			e.V.data = m.Data.Copy()
		}
		if m.Dirty {
			e.V.dirty = true
		}
		e.V.owner = coherence.NodeNone
		e.V.state = L2SS
		l.ackPut(m)
	case e.V.sharers[m.Src]:
		// Stale Put from a cache that lost ownership earlier.
		delete(e.V.sharers, m.Src)
		l.StrayPuts++
		l.ackPut(m)
	default:
		l.StrayPuts++
		l.ackPut(m)
	}
	l.popWaiting(addr)
}

func (l *L2) ackPut(m *coherence.Msg) {
	l.send(&coherence.Msg{Type: coherence.MWBAck, Addr: m.Addr.Line(), Src: l.id, Dst: m.Src})
}

func (l *L2) handlePutS(m *coherence.Msg) {
	if e := l.cache.Peek(m.Addr); e != nil {
		delete(e.V.sharers, m.Src)
	}
	// Fire-and-forget: no ack, absent line ignored.
}

// --- transaction completion ---

func (l *L2) handleUnblock(m *coherence.Msg) {
	e := l.cache.Peek(m.Addr)
	if e == nil || e.V.txn == nil || e.V.txn.requestor != m.Src {
		l.StrayAcks++
		l.protocolError(l.stateName(e), m)
		return
	}
	e.V.txn.unblocked = true
	l.maybeCloseTxn(m.Addr.Line(), e)
}

func (l *L2) handleCopy(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e != nil && e.V.txn != nil {
		t := e.V.txn
		switch {
		case t.kind == txnGetS && t.needCopy && m.Src == t.oldOwner:
			e.V.data = m.Data.Copy()
			if m.Dirty {
				e.V.dirty = true
			}
			t.copyIn = true
			l.maybeCloseTxn(addr, e)
			return
		case t.kind == txnRecall && t.recallWait[m.Src]:
			e.V.data = m.Data.Copy()
			if m.Dirty {
				e.V.dirty = true
			}
			delete(t.recallWait, m.Src)
			l.maybeFinishRecall(addr, e)
			return
		case t.kind == txnGetM && t.invalidated[m.Src]:
			// Paper §3.2.2: a buggy accelerator answered an Inv with a
			// writeback; the L2 acks the requestor on its behalf.
			if !l.cfg.TxnMods {
				l.protocolError(l.stateName(e), m)
				return
			}
			delete(t.invalidated, m.Src)
			l.sink.ReportError(coherence.ProtocolError{Where: l.name,
				Code: "HOST.WBAsAck", Addr: addr,
				Detail: "writeback accepted as InvAck; acking requestor on its behalf"})
			l.send(&coherence.Msg{Type: coherence.MInvAck, Addr: addr, Src: l.id, Dst: t.requestor})
			return
		}
	}
	// Late copy from a line already recalled/reassigned: a legitimate
	// race; drop it.
	l.StrayCopies++
}

func (l *L2) maybeCloseTxn(addr mem.Addr, e *cacheset.Entry[l2Line]) {
	t := e.V.txn
	if t == nil || !t.unblocked || (t.needCopy && !t.copyIn) {
		return
	}
	if t.kind == txnGetS && t.oldOwner != coherence.NodeNone {
		// Owner downgraded to S; requestor joined the sharers.
		e.V.state = L2SS
		e.V.owner = coherence.NodeNone
		e.V.sharers[t.oldOwner] = true
		e.V.sharers[t.requestor] = true
	}
	e.V.txn = nil
	l.popWaiting(addr)
	l.replayStalled()
}

// --- inclusive recall (eviction of a line with L1 copies) ---

// startRecallInSet picks the LRU idle line with copies in addr's set and
// begins recalling it.
func (l *L2) startRecallInSet(addr mem.Addr) {
	var cand *cacheset.Entry[l2Line]
	l.cache.VisitSet(addr, func(e *cacheset.Entry[l2Line]) {
		if e.V.txn != nil {
			return
		}
		if cand == nil || l.cache.LRUOrder(e) < l.cache.LRUOrder(cand) {
			cand = e
		}
	})
	if cand == nil {
		return // all ways busy; stalled request retries on any close
	}
	t := &l2Txn{kind: txnRecall, oldOwner: coherence.NodeNone, recallWait: make(map[coherence.NodeID]bool)}
	for _, s := range coherence.SortedNodes(cand.V.sharers) {
		t.recallWait[s] = true
		l.send(&coherence.Msg{Type: coherence.MInvToL2, Addr: cand.Addr, Src: l.id, Dst: s})
	}
	if cand.V.owner != coherence.NodeNone {
		t.recallWait[cand.V.owner] = true
		l.send(&coherence.Msg{Type: coherence.MInvToL2, Addr: cand.Addr, Src: l.id, Dst: cand.V.owner})
	}
	cand.V.txn = t
	l.maybeFinishRecall(cand.Addr, cand) // zero-copy lines finish at once
}

func (l *L2) handleRecallAck(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || e.V.txn == nil || e.V.txn.kind != txnRecall || !e.V.txn.recallWait[m.Src] {
		l.StrayAcks++
		return
	}
	delete(e.V.txn.recallWait, m.Src)
	l.maybeFinishRecall(addr, e)
}

func (l *L2) maybeFinishRecall(addr mem.Addr, e *cacheset.Entry[l2Line]) {
	t := e.V.txn
	if t == nil || t.kind != txnRecall || len(t.recallWait) > 0 {
		return
	}
	if e.V.dirty {
		l.memory.Write(addr, e.V.data)
	}
	l.cache.Invalidate(addr)
	l.popWaiting(addr)
	l.replayStalled()
}

// --- wakeups ---

// popWaiting replays the line's oldest queued request synchronously, so
// no same-tick arrival can cut in front.
func (l *L2) popWaiting(addr mem.Addr) { l.waiting.Replay(addr, l.Recv) }

func (l *L2) replayStalled() {
	for i := range l.stalled {
		l.fab.After(0, &l.stalled[i], l.recvFn)
	}
	l.stalled = l.stalled[:0]
}

// Outstanding reports open transactions and queued work.
func (l *L2) Outstanding() int {
	n := len(l.stalled) + l.waiting.Len()
	l.cache.Visit(func(e *cacheset.Entry[l2Line]) {
		if e.V.txn != nil {
			n++
		}
	})
	return n
}

// AuditLine reports the L2's stable view of a line for invariant checks:
// present, owner, sharer count, data, dirty.
func (l *L2) AuditLine(addr mem.Addr) (present bool, owner coherence.NodeID, sharers int, data *mem.Block, dirty bool) {
	e := l.cache.Peek(addr)
	if e == nil {
		return false, coherence.NodeNone, 0, nil, false
	}
	return true, e.V.owner, len(e.V.sharers), e.V.data, e.V.dirty
}

// Memory exposes the backing store for checkers.
func (l *L2) Memory() *mem.Memory { return l.memory }

// VisitStable reports every idle line with its directory bookkeeping.
func (l *L2) VisitStable(fn func(addr mem.Addr, owner coherence.NodeID, sharers []coherence.NodeID, data *mem.Block, dirty bool)) {
	l.cache.Visit(func(e *cacheset.Entry[l2Line]) {
		if e.V.txn != nil {
			return
		}
		var sh []coherence.NodeID
		for s := range e.V.sharers {
			sh = append(sh, s)
		}
		fn(e.Addr, e.V.owner, sh, e.V.data, e.V.dirty)
	})
}
