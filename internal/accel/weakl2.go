package accel

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// wkTxnKind labels open transactions at the weak shared L2.
type wkTxnKind int

const (
	wkFetch  wkTxnKind = iota // guard Get outstanding
	wkRecall                  // answering a guard Invalidate
	wkEvict                   // local recall for a capacity eviction
)

type wkTxn struct {
	kind    wkTxnKind
	waiters []coherence.Msg // XGets served once the fetch lands
	wait    map[coherence.NodeID]bool
	wantM   bool
	invPend bool // guard Invalidate arrived mid-fetch; ack when local copies die
}

type wkLine struct {
	host    AState // grant held from the guard
	data    *mem.Block
	dirty   bool
	holders map[coherence.NodeID]bool // L1s that may hold (stale) copies
	txn     *wkTxn
}

// WeakL2 is the shared L2 of the weakly-coherent hierarchy: it never
// invalidates sibling copies on local writes (the accelerator's explicit
// flush publishes data), but toward the host it is a fully correct
// Crossing Guard client — it acquires write permission before granting
// writable copies and recalls every holder when the guard invalidates.
type WeakL2 struct {
	id   coherence.NodeID
	name string
	fab  *network.Fabric
	cfg  Config
	xg   coherence.NodeID

	cache     *cacheset.Cache[wkLine]
	evictions map[mem.Addr]*wkLine
	waiting   coherence.LineQueue[coherence.Msg]
	stalled   []coherence.Msg
	hostInv   map[mem.Addr]coherence.Msg // copies of parked guard Invalidates
	// recvFn and serveWeakFn are l.Recv and l.serveWeak bound once, for
	// fabric.After.
	recvFn, serveWeakFn func(*coherence.Msg)
}

// NewWeakL2 builds and registers the weak shared L2.
func NewWeakL2(id coherence.NodeID, name string, fab *network.Fabric,
	xg coherence.NodeID, cfg Config) *WeakL2 {
	l := &WeakL2{
		id: id, name: name, fab: fab, cfg: cfg, xg: xg,
		cache:     cacheset.New[wkLine](cfg.L2Sets, cfg.L2Ways),
		evictions: make(map[mem.Addr]*wkLine),
		hostInv:   make(map[mem.Addr]coherence.Msg),
	}
	l.recvFn, l.serveWeakFn = l.Recv, l.serveWeak
	fab.Register(l)
	return l
}

// ID implements coherence.Controller.
func (l *WeakL2) ID() coherence.NodeID { return l.id }

// Name implements coherence.Controller.
func (l *WeakL2) Name() string { return l.name }

// Recv implements coherence.Controller.
func (l *WeakL2) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.XGetS, coherence.XGetM:
		l.handleGet(m)
	case coherence.XPutM:
		l.handlePut(m)
	case coherence.XPutS:
		if e := l.cache.Peek(m.Addr); e != nil {
			delete(e.V.holders, m.Src)
		}
	case coherence.XInvAck, coherence.XInvWB:
		l.handleInvResp(m)
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		l.handleGrant(m)
	case coherence.AWBAck:
		l.handleAWBAck(m)
	case coherence.AInv:
		l.handleAInv(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", l.name, m))
	}
}

func (l *WeakL2) send(m *coherence.Msg) { l.fab.Send(m) }

func (l *WeakL2) handleGet(m *coherence.Msg) {
	addr := m.Addr.Line()
	if _, ev := l.evictions[addr]; ev {
		l.waiting.Park(addr, *m)
		return
	}
	e := l.cache.Peek(addr)
	if e != nil && e.V.txn != nil {
		if e.V.txn.kind == wkFetch {
			// Weak model: pile additional readers/writers onto the
			// in-flight fetch instead of serializing them.
			if m.Type == coherence.XGetM {
				e.V.txn.wantM = true
				if e.V.host == AS || e.V.host == AI {
					// The open fetch may be shared-only; upgrade it by
					// issuing a GetM once it lands (handled at grant).
				}
			}
			e.V.txn.waiters = append(e.V.txn.waiters, *m)
			return
		}
		l.waiting.Park(addr, *m)
		return
	}
	if l.waiting.Blocked(addr, m) {
		l.waiting.Park(addr, *m)
		return
	}
	if e == nil {
		l.missFetch(m)
		return
	}
	l.fab.After(l.cfg.L2Lat, m, l.serveWeakFn)
}

func (l *WeakL2) missFetch(m *coherence.Msg) {
	addr := m.Addr.Line()
	e, victim, ok := l.cache.Allocate(addr, func(e *cacheset.Entry[wkLine]) bool {
		_, ev := l.evictions[e.Addr]
		return e.V.txn == nil && len(e.V.holders) == 0 && !ev
	})
	if !ok {
		l.startEvictInSet(addr)
		l.stalled = append(l.stalled, *m)
		return
	}
	if victim != nil {
		l.putToGuard(victim.Addr, &victim.V)
	}
	wantM := m.Type == coherence.XGetM
	e.V = wkLine{host: AI, holders: map[coherence.NodeID]bool{},
		txn: &wkTxn{kind: wkFetch, wantM: wantM, waiters: []coherence.Msg{*m}}}
	ty := coherence.AGetS
	if wantM {
		ty = coherence.AGetM
	}
	l.send(&coherence.Msg{Type: ty, Addr: addr, Src: l.id, Dst: l.xg})
}

// serveWeak serves a Get against a present, idle line.
func (l *WeakL2) serveWeak(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || e.V.txn != nil {
		l.fab.After(0, m, l.recvFn)
		return
	}
	if m.Type == coherence.XGetM && e.V.host == AS {
		// Need host write permission first (no sibling invalidations —
		// the weak model's whole point).
		e.V.txn = &wkTxn{kind: wkFetch, wantM: true, waiters: []coherence.Msg{*m}}
		l.send(&coherence.Msg{Type: coherence.AGetM, Addr: addr, Src: l.id, Dst: l.xg})
		return
	}
	l.grant(addr, e, m)
}

func (l *WeakL2) grant(addr mem.Addr, e *cacheset.Entry[wkLine], m *coherence.Msg) {
	e.V.holders[m.Src] = true
	ty := coherence.XDataS
	if m.Type == coherence.XGetM {
		ty = coherence.XDataM
	}
	l.send(&coherence.Msg{Type: ty, Addr: addr, Src: l.id, Dst: m.Src, Data: e.V.data.Copy()})
}

func (l *WeakL2) handlePut(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil {
		panic(fmt.Sprintf("%s: Put for absent line %v (inclusion broken)", l.name, addr))
	}
	// Weak merge: the flusher's whole block wins (last writer wins — the
	// documented hazard of the flush-based model).
	e.V.data = m.Data.Copy()
	e.V.dirty = true
	delete(e.V.holders, m.Src)
	l.send(&coherence.Msg{Type: coherence.XWBAck, Addr: addr, Src: l.id, Dst: m.Src})
	if t := e.V.txn; t != nil && t.wait[m.Src] {
		delete(t.wait, m.Src)
		l.advanceWeak(addr, e)
	}
}

func (l *WeakL2) handleInvResp(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || e.V.txn == nil || !e.V.txn.wait[m.Src] {
		return // stale ack from a flush that raced the recall
	}
	delete(e.V.txn.wait, m.Src)
	delete(e.V.holders, m.Src)
	if m.Type == coherence.XInvWB {
		e.V.data = m.Data.Copy()
		e.V.dirty = true
	}
	l.advanceWeak(addr, e)
}

func (l *WeakL2) advanceWeak(addr mem.Addr, e *cacheset.Entry[wkLine]) {
	t := e.V.txn
	if t == nil || len(t.wait) > 0 {
		return
	}
	switch t.kind {
	case wkRecall:
		l.answerGuard(addr, e)
	case wkEvict:
		v := e.V
		l.cache.Invalidate(addr)
		l.putToGuard(addr, &v)
		l.pop(addr)
		l.replayStalled()
	}
}

func (l *WeakL2) handleGrant(m *coherence.Msg) {
	addr := m.Addr.Line()
	e := l.cache.Peek(addr)
	if e == nil || e.V.txn == nil || e.V.txn.kind != wkFetch {
		panic(fmt.Sprintf("%s: grant with no fetch: %v", l.name, m))
	}
	t := e.V.txn
	switch m.Type {
	case coherence.ADataS:
		e.V.host = AS
	case coherence.ADataE:
		e.V.host = AE
	case coherence.ADataM:
		e.V.host = AM
	}
	if !e.V.dirty {
		e.V.data = m.Data.Copy()
	}
	if t.invPend {
		// A guard Invalidate raced the fetch; local copies are already
		// gone (nothing was granted), so answer now and retry waiters.
		t.invPend = false
		e.V.txn = nil
		waiters := t.waiters
		l.send(&coherence.Msg{Type: coherence.AInvAck, Addr: addr, Src: l.id, Dst: l.xg})
		// Whatever we were granted is void; drop and refetch on demand.
		l.cache.Invalidate(addr)
		for i := range waiters {
			l.fab.After(0, &waiters[i], l.recvFn)
		}
		l.pop(addr)
		return
	}
	if t.wantM && e.V.host == AS {
		// Readers piled on first and a writer joined: upgrade.
		l.send(&coherence.Msg{Type: coherence.AGetM, Addr: addr, Src: l.id, Dst: l.xg})
		return
	}
	waiters := t.waiters
	t.waiters = nil
	e.V.txn = nil
	for i := range waiters {
		l.grant(addr, e, &waiters[i])
	}
	l.pop(addr)
}

func (l *WeakL2) handleAWBAck(m *coherence.Msg) {
	addr := m.Addr.Line()
	if _, ok := l.evictions[addr]; !ok {
		panic(fmt.Sprintf("%s: WBAck with no eviction: %v", l.name, m))
	}
	delete(l.evictions, addr)
	l.pop(addr)
	l.replayStalled()
}

func (l *WeakL2) handleAInv(m *coherence.Msg) {
	addr := m.Addr.Line()
	if _, ev := l.evictions[addr]; ev {
		l.send(&coherence.Msg{Type: coherence.AInvAck, Addr: addr, Src: l.id, Dst: l.xg})
		return
	}
	e := l.cache.Peek(addr)
	if e == nil {
		l.send(&coherence.Msg{Type: coherence.AInvAck, Addr: addr, Src: l.id, Dst: l.xg})
		return
	}
	if t := e.V.txn; t != nil {
		switch t.kind {
		case wkFetch:
			t.invPend = true // answered when the grant lands
		default:
			if _, ok := l.hostInv[addr]; ok {
				panic(fmt.Sprintf("%s: second concurrent guard Invalidate for %v", l.name, addr))
			}
			l.hostInv[addr] = *m
		}
		return
	}
	l.recallHolders(addr, e, wkRecall)
}

// recallHolders pulls the line out of every (possibly stale) holder.
func (l *WeakL2) recallHolders(addr mem.Addr, e *cacheset.Entry[wkLine], kind wkTxnKind) {
	t := &wkTxn{kind: kind, wait: map[coherence.NodeID]bool{}}
	e.V.txn = t
	for _, h := range coherence.SortedNodes(e.V.holders) {
		t.wait[h] = true
		l.send(&coherence.Msg{Type: coherence.XInv, Addr: addr, Src: l.id, Dst: h})
	}
	l.advanceWeak(addr, e)
}

func (l *WeakL2) answerGuard(addr mem.Addr, e *cacheset.Entry[wkLine]) {
	host, data, dirty := e.V.host, e.V.data, e.V.dirty
	l.cache.Invalidate(addr)
	switch {
	case host == AM || dirty:
		l.send(&coherence.Msg{Type: coherence.ADirtyWB, Addr: addr, Src: l.id, Dst: l.xg,
			Data: data.Copy(), Dirty: true})
	case host == AE:
		l.send(&coherence.Msg{Type: coherence.ACleanWB, Addr: addr, Src: l.id, Dst: l.xg,
			Data: data.Copy()})
	default:
		l.send(&coherence.Msg{Type: coherence.AInvAck, Addr: addr, Src: l.id, Dst: l.xg})
	}
	l.pop(addr)
	l.replayStalled()
}

func (l *WeakL2) putToGuard(addr mem.Addr, v *wkLine) {
	l.evictions[addr] = v
	var m coherence.Msg
	switch {
	case v.host == AM || v.dirty:
		m = coherence.Msg{Type: coherence.APutM, Data: v.data.Copy(), Dirty: true}
	case v.host == AE:
		m = coherence.Msg{Type: coherence.APutE, Data: v.data.Copy()}
	default:
		m = coherence.Msg{Type: coherence.APutS}
	}
	m.Addr, m.Src, m.Dst = addr, l.id, l.xg
	l.send(&m)
}

func (l *WeakL2) startEvictInSet(addr mem.Addr) {
	var cand *cacheset.Entry[wkLine]
	l.cache.VisitSet(addr, func(e *cacheset.Entry[wkLine]) {
		if e.V.txn != nil {
			return
		}
		if _, ev := l.evictions[e.Addr]; ev {
			return
		}
		if cand == nil || l.cache.LRUOrder(e) < l.cache.LRUOrder(cand) {
			cand = e
		}
	})
	if cand == nil {
		return
	}
	l.recallHolders(cand.Addr, cand, wkEvict)
}

func (l *WeakL2) pop(addr mem.Addr) {
	if m, ok := l.hostInv[addr]; ok {
		delete(l.hostInv, addr)
		l.handleAInv(&m)
		return
	}
	l.waiting.Replay(addr, l.Recv)
}

func (l *WeakL2) replayStalled() {
	for i := range l.stalled {
		l.fab.After(0, &l.stalled[i], l.recvFn)
	}
	l.stalled = l.stalled[:0]
}

// Outstanding reports open transactions and queued work.
func (l *WeakL2) Outstanding() int {
	n := len(l.evictions) + len(l.stalled) + len(l.hostInv) + l.waiting.Len()
	l.cache.Visit(func(e *cacheset.Entry[wkLine]) {
		if e.V.txn != nil {
			n++
		}
	})
	return n
}

// VisitStable reports idle lines with their guard-level grant, local
// holder count, and data, for system audits.
func (l *WeakL2) VisitStable(fn func(addr mem.Addr, host AState, holders int, data *mem.Block, dirty bool)) {
	l.cache.Visit(func(e *cacheset.Entry[wkLine]) {
		if e.V.txn != nil {
			return
		}
		fn(e.Addr, e.V.host, len(e.V.holders), e.V.data, e.V.dirty)
	})
}
