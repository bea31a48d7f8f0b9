package mesi

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// l1Line is the protocol payload of one L1 cache line.
type l1Line struct {
	state  L1State
	data   *mem.Block
	dirty  bool            // modified relative to the L2
	needed int             // responses to await for a GetM (-1 = unknown)
	got    int             // responses received so far
	op     coherence.Msg   // CPU operation driving the open transaction
	fwds   []coherence.Msg // forwards queued until the line stabilizes
}

// L1 is a private MESI L1 cache attached to the shared L2.
type L1 struct {
	id   coherence.NodeID
	name string
	fab  *network.Fabric
	cfg  Config
	l2   coherence.NodeID
	sink coherence.ErrorSink

	cache *cacheset.Cache[l1Line]
	// wb holds lines evicted but awaiting a writeback ack (MI_A / II_A);
	// this models the writeback buffer / MSHR of a real L1.
	wb map[mem.Addr]*l1Line
	// waiting queues CPU operations that hit a line with an open
	// transaction (e.g. an address being written back).
	waiting coherence.LineQueue[coherence.Msg]
	// stalledOps holds CPU operations that could not allocate a line
	// because every way in the set was transient.
	stalledOps []coherence.Msg
	// recvFn is l.Recv bound once, for fabric.After replays.
	recvFn func(*coherence.Msg)

	// Cov records (state, event) coverage for the stress-test report.
	Cov *coherence.Coverage
}

// NewL1 builds and registers an L1.
func NewL1(id coherence.NodeID, name string, fab *network.Fabric,
	l2 coherence.NodeID, cfg Config, sink coherence.ErrorSink) *L1 {
	l := &L1{
		id: id, name: name, fab: fab, cfg: cfg, l2: l2, sink: sink,
		cache: cacheset.New[l1Line](cfg.L1Sets, cfg.L1Ways),
		wb:    make(map[mem.Addr]*l1Line),
		Cov:   NewL1Coverage(),
	}
	l.recvFn = l.Recv
	fab.Register(l)
	return l
}

// NewL1Coverage declares the (state, event) pairs we believe reachable for
// an L1, mirroring the paper's coverage accounting (§4.1). Pairs that are
// declared but never visited are reported, not failed; visiting an
// undeclared pair is flagged as unexpected.
func NewL1Coverage() *coherence.Coverage { return l1Table.New() }

// l1Table is the mesi.L1 class table.
var l1Table = func() *coherence.Table {
	t := coherence.NewTable("mesi.L1", l1StateNames[:]...)
	type pe struct{ s, e string }
	pairs := []pe{
		// CPU events.
		{"I", evLoad}, {"I", evStore},
		{"S", evLoad}, {"S", evStore},
		{"E", evLoad}, {"E", evStore},
		{"M", evLoad}, {"M", evStore},
		{"S", evReplacement}, {"E", evReplacement}, {"M", evReplacement},
		// Data/ack responses.
		{"IS_D", "M:DataE"}, {"IS_D", "M:DataS"}, {"IS_D", "M:DataOwner"},
		{"IM_AD", "M:DataAcks"}, {"IM_AD", "M:DataOwner"}, {"IM_AD", "M:InvAck"},
		{"IM_A", "M:InvAck"}, {"IM_A", "M:DataOwner"},
		{"SM_AD", "M:DataAcks"}, {"SM_AD", "M:DataOwner"}, {"SM_AD", "M:InvAck"},
		{"SM_A", "M:InvAck"}, {"SM_A", "M:DataOwner"},
		{"MI_A", "M:WBAck"}, {"II_A", "M:WBAck"},
		// Host requests.
		{"S", "M:Inv"}, {"I", "M:Inv"}, {"IS_D", "M:Inv"},
		{"IM_AD", "M:Inv"}, {"SM_AD", "M:Inv"},
		{"M", "M:FwdGetS"}, {"E", "M:FwdGetS"}, {"MI_A", "M:FwdGetS"},
		{"M", "M:FwdGetM"}, {"E", "M:FwdGetM"}, {"MI_A", "M:FwdGetM"},
		// An evicting owner can be recorded as a sharer after answering
		// a Fwd_GetS from MI_A; a later GetM then invalidates it.
		{"MI_A", "M:Inv"}, {"II_A", "M:Inv"},
		{"S", "M:InvToL2"}, {"E", "M:InvToL2"}, {"M", "M:InvToL2"},
		{"I", "M:InvToL2"}, {"MI_A", "M:InvToL2"},
		{"SM_AD", "M:InvToL2"}, {"IM_AD", "M:InvToL2"},
		// Defensive: buggy-accelerator responses surfaced by XG
		// (tolerated only with TxnMods).
		{"IS_D", "M:InvAck"},
		// Forwards queued while completing a GetM.
		{"IM_A", "M:FwdGetS"}, {"IM_A", "M:FwdGetM"},
		{"SM_A", "M:FwdGetS"}, {"SM_A", "M:FwdGetM"},
	}
	for _, p := range pairs {
		t.Declare(p.s, p.e)
	}
	return t
}()

// ID implements coherence.Controller.
func (l *L1) ID() coherence.NodeID { return l.id }

// Name implements coherence.Controller.
func (l *L1) Name() string { return l.name }

// Recv implements coherence.Controller.
func (l *L1) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		l.handleCPU(m)
	case coherence.MDataE, coherence.MDataS, coherence.MDataAcks,
		coherence.MDataOwner, coherence.MInvAck, coherence.MWBAck:
		l.handleResponse(m)
	case coherence.MInv, coherence.MInvToL2, coherence.MFwdGetS, coherence.MFwdGetM:
		l.handleHostRequest(m)
	default:
		l.unexpected("?", m)
	}
}

// protocolError reports (with TxnMods) or panics (baseline) on an
// impossible transition; baselines crash because gem5-style protocols
// treat undefined transitions as fatal, which is exactly the fragility
// Crossing Guard exists to contain.
func (l *L1) protocolError(state string, m *coherence.Msg) {
	if l.cfg.TxnMods {
		l.sink.ReportError(coherence.ProtocolError{
			Where: l.name, Code: "HOST.L1.Unexpected", Addr: m.Addr,
			Detail: fmt.Sprintf("state %s event %v", state, m.Type),
		})
		return
	}
	panic(fmt.Sprintf("%s: unexpected %v in state %s", l.name, m, state))
}

func (l *L1) unexpected(state string, m *coherence.Msg) {
	l.Cov.RecordName(state, m.Type.String())
	l.protocolError(state, m)
}

// stateOf returns the line's current view: the in-cache entry, the
// writeback-buffer entry, or nil (Invalid).
func (l *L1) lineFor(addr mem.Addr) *l1Line {
	if e := l.cache.Peek(addr); e != nil {
		return &e.V
	}
	if wl, ok := l.wb[addr.Line()]; ok {
		return wl
	}
	return nil
}

// --- CPU side ---

func (l *L1) handleCPU(m *coherence.Msg) {
	line := m.Addr.Line()
	if _, ok := l.wb[line]; ok {
		// Address is mid-writeback; wait for the WBAck.
		l.waiting.Park(line, *m)
		return
	}
	e := l.cache.Lookup(m.Addr)
	if e != nil && !e.V.state.Stable() {
		l.waiting.Park(line, *m)
		return
	}
	isStore := m.Type == coherence.ReqStore
	ev := coherence.EvLoad
	if isStore {
		ev = coherence.EvStore
	}
	if e == nil {
		l.Cov.Record(int(L1I), ev)
		e = l.allocate(m)
		if e == nil {
			return // stalled; will be replayed
		}
		if isStore {
			e.V.state = L1IMad
			e.V.needed = -1
			e.V.op = *m
			l.send(&coherence.Msg{Type: coherence.MGetM, Addr: line, Src: l.id, Dst: l.l2})
		} else {
			e.V.state = L1ISd
			e.V.op = *m
			l.send(&coherence.Msg{Type: coherence.MGetS, Addr: line, Src: l.id, Dst: l.l2})
		}
		return
	}
	st := e.V.state
	l.Cov.Record(int(st), ev)
	switch {
	case !isStore: // load hit in S/E/M
		l.respond(m, e.V.data[m.Addr.Offset()])
	case st == L1M:
		e.V.data[m.Addr.Offset()] = m.Val
		e.V.dirty = true
		l.respond(m, 0)
	case st == L1E:
		e.V.state = L1M
		e.V.data[m.Addr.Offset()] = m.Val
		e.V.dirty = true
		l.respond(m, 0)
	case st == L1S:
		e.V.state = L1SMad
		e.V.needed = -1
		e.V.op = *m
		l.send(&coherence.Msg{Type: coherence.MGetM, Addr: line, Src: l.id, Dst: l.l2})
	}
}

// allocate finds a way for m.Addr's line, evicting if necessary. It
// returns nil (and stalls m) when no way is evictable.
func (l *L1) allocate(m *coherence.Msg) *cacheset.Entry[l1Line] {
	e, victim, ok := l.cache.Allocate(m.Addr, func(e *cacheset.Entry[l1Line]) bool {
		return e.V.state.Stable()
	})
	if !ok {
		l.stalledOps = append(l.stalledOps, *m)
		return nil
	}
	if victim != nil {
		l.evict(victim.Addr, &victim.V)
	}
	e.V = l1Line{state: L1I, needed: -1}
	return e
}

// evict starts replacement of a stable victim line.
func (l *L1) evict(addr mem.Addr, v *l1Line) {
	l.Cov.Record(int(v.state), coherence.EvReplacement)
	switch v.state {
	case L1S:
		// Exact sharer tracking: notify the L2, fire-and-forget.
		l.send(&coherence.Msg{Type: coherence.MPutS, Addr: addr, Src: l.id, Dst: l.l2})
	case L1E, L1M:
		l.wb[addr] = &l1Line{state: L1MIa, data: v.data, dirty: v.dirty}
		l.send(&coherence.Msg{Type: coherence.MPutM, Addr: addr, Src: l.id, Dst: l.l2,
			Data: v.data.Copy(), Dirty: v.dirty})
	default:
		panic(fmt.Sprintf("%s: evicting line in state %v", l.name, v.state))
	}
}

// respond completes a CPU operation after the hit latency.
func (l *L1) respond(op *coherence.Msg, val byte) {
	r := op.Completion(l.id, val)
	l.fab.SendAfter(l.cfg.L1HitLat, &r)
}

func (l *L1) send(m *coherence.Msg) { l.fab.Send(m) }

// blockOrZero guards against data-less messages from a misbehaving peer:
// a nil block is treated as zero data, matching Crossing Guard's recovery
// policy of supplying zero blocks.
func blockOrZero(b *mem.Block) *mem.Block {
	if b == nil {
		return mem.Zero()
	}
	return b
}

// --- responses (data, acks, writeback acks) ---

func (l *L1) handleResponse(m *coherence.Msg) {
	line := m.Addr.Line()
	if m.Type == coherence.MWBAck {
		wl, ok := l.wb[line]
		if !ok {
			l.unexpected("I", m)
			return
		}
		l.Cov.RecordMsg(int(wl.state), m.Type)
		delete(l.wb, line)
		l.settled(line)
		return
	}
	e := l.cache.Peek(m.Addr)
	if e == nil {
		l.unexpected("I", m)
		return
	}
	st := e.V.state
	l.Cov.RecordMsg(int(st), m.Type)
	switch st {
	case L1ISd:
		switch m.Type {
		case coherence.MDataE:
			l.completeGet(e, blockOrZero(m.Data), L1E)
		case coherence.MDataS, coherence.MDataOwner:
			l.completeGet(e, blockOrZero(m.Data), L1S)
		case coherence.MInvAck:
			// A buggy accelerator behind Crossing Guard answered a
			// Fwd_GetS with an InvAck; with the paper's host mods we
			// accept the ack as a (data-less) response.
			if !l.cfg.TxnMods {
				l.protocolError(st.String(), m)
				return
			}
			l.sink.ReportError(coherence.ProtocolError{Where: l.name,
				Code: "HOST.AckAsData", Addr: m.Addr,
				Detail: "InvAck accepted as GetS data (zero block)"})
			l.completeGet(e, mem.Zero(), L1S)
		default:
			l.protocolError(st.String(), m)
		}
	case L1IMad, L1SMad:
		switch m.Type {
		case coherence.MDataAcks:
			if m.Data != nil {
				e.V.data = m.Data.Copy()
				e.V.dirty = false
			}
			e.V.needed = m.Acks
			l.maybeCompleteGetM(e, m.Addr)
		case coherence.MDataOwner:
			// Ownership hand-off from the previous owner.
			e.V.data = blockOrZero(m.Data)
			e.V.dirty = m.Dirty
			e.V.got++
			l.maybeCompleteGetM(e, m.Addr)
		case coherence.MInvAck:
			e.V.got++
			l.maybeCompleteGetM(e, m.Addr)
		default:
			l.protocolError(st.String(), m)
		}
	case L1IMa, L1SMa:
		switch m.Type {
		case coherence.MInvAck:
			e.V.got++
			l.maybeCompleteGetM(e, m.Addr)
		case coherence.MDataOwner:
			// Owner hand-off whose "expect 1 response" notice from the
			// L2 arrived first.
			e.V.data = blockOrZero(m.Data)
			e.V.dirty = m.Dirty
			e.V.got++
			l.maybeCompleteGetM(e, m.Addr)
		default:
			l.protocolError(st.String(), m)
		}
	default:
		l.protocolError(st.String(), m)
	}
}

// completeGet finishes a GetS transaction.
func (l *L1) completeGet(e *cacheset.Entry[l1Line], data *mem.Block, st L1State) {
	op := e.V.op
	e.V.state = st
	e.V.data = data.Copy()
	e.V.dirty = false
	e.V.op = coherence.Msg{}
	l.send(&coherence.Msg{Type: coherence.MUnblock, Addr: e.Addr, Src: l.id, Dst: l.l2})
	l.respond(&op, e.V.data[op.Addr.Offset()])
	l.drainFwds(e)
	l.settled(e.Addr)
}

// maybeCompleteGetM finishes a GetM once the data and every expected
// response have arrived.
func (l *L1) maybeCompleteGetM(e *cacheset.Entry[l1Line], addr mem.Addr) {
	// Move to the "got data" transients for coverage fidelity.
	if e.V.needed >= 0 {
		switch e.V.state {
		case L1IMad:
			e.V.state = L1IMa
		case L1SMad:
			e.V.state = L1SMa
		}
	}
	if e.V.needed < 0 || e.V.got < e.V.needed {
		return
	}
	if e.V.data == nil {
		// All responses arrived but none carried data: only possible
		// when a buggy accelerator InvAcked instead of forwarding data.
		if !l.cfg.TxnMods {
			panic(fmt.Sprintf("%s: GetM for %v completed without data", l.name, e.Addr))
		}
		l.sink.ReportError(coherence.ProtocolError{Where: l.name,
			Code: "HOST.AckAsData", Addr: e.Addr,
			Detail: "GetM completed with zero block"})
		e.V.data = mem.Zero()
	}
	op := e.V.op
	e.V.state = L1M
	e.V.dirty = true
	e.V.needed = -1
	e.V.got = 0
	e.V.op = coherence.Msg{}
	e.V.data[op.Addr.Offset()] = op.Val
	l.send(&coherence.Msg{Type: coherence.MUnblock, Addr: e.Addr, Src: l.id, Dst: l.l2})
	l.respond(&op, 0)
	l.drainFwds(e)
	l.settled(e.Addr)
}

// --- host requests (invalidations, forwards) ---

func (l *L1) handleHostRequest(m *coherence.Msg) {
	line := m.Addr.Line()
	if wl, ok := l.wb[line]; ok {
		l.hostReqOnWB(line, wl, m)
		return
	}
	e := l.cache.Peek(m.Addr)
	st := L1I
	if e != nil {
		st = e.V.state
	}
	l.Cov.RecordMsg(int(st), m.Type)
	switch m.Type {
	case coherence.MInv:
		switch st {
		case L1S:
			l.cache.Invalidate(m.Addr)
			l.sendInvAck(m)
			l.settled(line)
		case L1I, L1ISd:
			// Raced with our PutS or our queued GetS; the S copy (if
			// any) is from an older epoch. Ack and carry on.
			l.sendInvAck(m)
		case L1IMad, L1SMad:
			// We were a sharer whose GetM is queued behind the
			// invalidating transaction; drop the stale S copy.
			if st == L1SMad {
				e.V.state = L1IMad
			}
			l.sendInvAck(m)
		default:
			l.protocolError(st.String(), m)
		}
	case coherence.MInvToL2:
		switch st {
		case L1S:
			l.cache.Invalidate(m.Addr)
			l.send(&coherence.Msg{Type: coherence.MInvAckToL2, Addr: line, Src: l.id, Dst: l.l2})
			l.settled(line)
		case L1E, L1M:
			l.send(&coherence.Msg{Type: coherence.MCopyToL2, Addr: line, Src: l.id, Dst: l.l2,
				Data: e.V.data.Copy(), Dirty: e.V.dirty})
			l.cache.Invalidate(m.Addr)
			l.settled(line)
		case L1I:
			l.send(&coherence.Msg{Type: coherence.MInvAckToL2, Addr: line, Src: l.id, Dst: l.l2})
		case L1SMad, L1IMad:
			// Recall of a line we are also trying to upgrade; our S
			// copy dies, our GetM stays queued.
			if st == L1SMad {
				e.V.state = L1IMad
			}
			l.send(&coherence.Msg{Type: coherence.MInvAckToL2, Addr: line, Src: l.id, Dst: l.l2})
		default:
			l.protocolError(st.String(), m)
		}
	case coherence.MFwdGetS:
		switch st {
		case L1E, L1M:
			l.send(&coherence.Msg{Type: coherence.MDataOwner, Addr: line, Src: l.id,
				Dst: m.Requestor, Data: e.V.data.Copy(), Dirty: e.V.dirty})
			l.send(&coherence.Msg{Type: coherence.MCopyToL2, Addr: line, Src: l.id, Dst: l.l2,
				Data: e.V.data.Copy(), Dirty: e.V.dirty})
			e.V.state = L1S
			e.V.dirty = false
			l.settled(line)
		case L1IMa, L1SMa:
			e.V.fwds = append(e.V.fwds, *m)
		default:
			l.protocolError(st.String(), m)
		}
	case coherence.MFwdGetM:
		switch st {
		case L1E, L1M:
			l.send(&coherence.Msg{Type: coherence.MDataOwner, Addr: line, Src: l.id,
				Dst: m.Requestor, Data: e.V.data.Copy(), Dirty: e.V.dirty})
			l.cache.Invalidate(m.Addr)
			l.settled(line)
		case L1IMa, L1SMa:
			e.V.fwds = append(e.V.fwds, *m)
		default:
			l.protocolError(st.String(), m)
		}
	}
}

// hostReqOnWB handles host requests that race with an outstanding
// writeback (the line lives in the writeback buffer).
func (l *L1) hostReqOnWB(line mem.Addr, wl *l1Line, m *coherence.Msg) {
	l.Cov.RecordMsg(int(wl.state), m.Type)
	switch m.Type {
	case coherence.MFwdGetS:
		if wl.state != L1MIa {
			l.protocolError(wl.state.String(), m)
			return
		}
		l.send(&coherence.Msg{Type: coherence.MDataOwner, Addr: line, Src: l.id,
			Dst: m.Requestor, Data: wl.data.Copy(), Dirty: wl.dirty})
		l.send(&coherence.Msg{Type: coherence.MCopyToL2, Addr: line, Src: l.id, Dst: l.l2,
			Data: wl.data.Copy(), Dirty: wl.dirty})
		// Remain MI_A: the WBAck for our Put is still coming.
	case coherence.MFwdGetM:
		if wl.state != L1MIa {
			l.protocolError(wl.state.String(), m)
			return
		}
		l.send(&coherence.Msg{Type: coherence.MDataOwner, Addr: line, Src: l.id,
			Dst: m.Requestor, Data: wl.data.Copy(), Dirty: wl.dirty})
		wl.state = L1IIa
	case coherence.MInvToL2:
		if wl.state != L1MIa {
			// II_A: ownership already handed off; just ack.
			l.send(&coherence.Msg{Type: coherence.MInvAckToL2, Addr: line, Src: l.id, Dst: l.l2})
			return
		}
		l.send(&coherence.Msg{Type: coherence.MCopyToL2, Addr: line, Src: l.id, Dst: l.l2,
			Data: wl.data.Copy(), Dirty: wl.dirty})
		wl.state = L1IIa
	case coherence.MInv:
		// We answered a Fwd_GetS while evicting, so the L2 recorded us
		// as a sharer; a later writer now invalidates that stale entry.
		l.sendInvAck(m)
	default:
		l.protocolError(wl.state.String(), m)
	}
}

func (l *L1) sendInvAck(m *coherence.Msg) {
	l.send(&coherence.Msg{Type: coherence.MInvAck, Addr: m.Addr.Line(), Src: l.id, Dst: m.Requestor})
}

// drainFwds replays forwards queued while a GetM was completing.
func (l *L1) drainFwds(e *cacheset.Entry[l1Line]) {
	fwds := e.V.fwds
	e.V.fwds = nil
	for i := range fwds {
		l.fab.After(0, &fwds[i], l.recvFn)
	}
}

// settled replays CPU operations blocked on this line and any operations
// stalled on allocation.
func (l *L1) settled(line mem.Addr) {
	if next, ok := l.waiting.Pop(line); ok {
		l.fab.After(0, &next, l.recvFn)
	}
	for i := range l.stalledOps {
		l.fab.After(0, &l.stalledOps[i], l.recvFn)
	}
	l.stalledOps = l.stalledOps[:0]
}

// Outstanding reports open transactions (for deadlock detection).
func (l *L1) Outstanding() int {
	n := len(l.wb) + len(l.stalledOps) + l.waiting.Len()
	l.cache.Visit(func(e *cacheset.Entry[l1Line]) {
		if !e.V.state.Stable() {
			n++
		}
	})
	return n
}

// AuditLine reports this L1's stable view of a line for the SWMR
// invariant checker: (hasCopy, exclusive, data, dirty).
func (l *L1) AuditLine(addr mem.Addr) (bool, bool, *mem.Block, bool) {
	e := l.cache.Peek(addr)
	if e == nil || !e.V.state.Stable() || e.V.state == L1I {
		return false, false, nil, false
	}
	excl := e.V.state == L1E || e.V.state == L1M
	return true, excl, e.V.data, e.V.dirty
}

// VisitStable reports every stable valid line for invariant checks.
func (l *L1) VisitStable(fn func(addr mem.Addr, st L1State, data *mem.Block, dirty bool)) {
	l.cache.Visit(func(e *cacheset.Entry[l1Line]) {
		if e.V.state.Stable() && e.V.state != L1I {
			fn(e.Addr, e.V.state, e.V.data, e.V.dirty)
		}
	})
}

// WBPending reports buffered writebacks (zero at quiesce).
func (l *L1) WBPending() int { return len(l.wb) }
