// Package xlate implements Crossing Guard's block-size translation
// (paper §2.5): an accelerator that caches 128-byte blocks over a host
// with 64-byte blocks. "On an accelerator request, it can request all
// needed host blocks, and once they arrive, it can forward the merged
// block to the accelerator. On a writeback, it can split the single
// accelerator block back into component blocks."
//
// WideAccel is a wide-block accelerator cache with the translation layer
// folded in: externally it speaks the ordinary 64-byte Crossing Guard
// interface (so it attaches to a real, unmodified guard), internally it
// manages 128-byte lines by issuing paired sub-block transactions. The
// paper's warning is observable here too: false sharing doubles, because
// a host invalidation of either half recalls the whole wide line.
package xlate

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// WideBytes is the accelerator's block size (two host blocks).
const WideBytes = 2 * mem.BlockBytes

// halfState tracks one host-sized half of a wide line.
type halfState int

const (
	halfS halfState = iota
	halfE
	halfM
)

type wideLine struct {
	busy     bool          // paired transaction outstanding
	op       coherence.Msg // core operation the fill serves
	pending  int           // sub-block responses still expected
	issue    sim.Time      // first sub-block request tick, for crossing latency
	inflight [2]bool
	half     [2]halfState
	dirty    [2]bool
	data     [2]*mem.Block
}

// WideAccel is the 128-byte-block accelerator plus its translation layer.
type WideAccel struct {
	id   coherence.NodeID
	name string
	eng  *sim.Engine
	fab  *network.Fabric
	xg   coherence.NodeID

	cache      *cacheset.Cache[wideLine]
	wb         map[mem.Addr]int // wide evictions: outstanding WBAcks
	waiting    coherence.LineQueue[coherence.Msg]
	stalledOps []coherence.Msg
	// recvFn is w.Recv bound once, for fabric.After replays.
	recvFn func(*coherence.Msg)

	// Merges counts wide fills assembled from sub-blocks; Splits counts
	// wide writebacks split into host blocks; FalseShareRecalls counts
	// wide lines lost because the host invalidated one half.
	Merges, Splits, FalseShareRecalls uint64

	// Observability (nil-safe no-ops until AttachObs).
	mMerges, mSplits, mFalseShare *obs.Counter
	mCrossing                     *obs.Histogram
}

// NewWideAccel builds and registers a wide-block accelerator. sets/ways
// describe 128-byte lines.
func NewWideAccel(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	xg coherence.NodeID, sets, ways int) *WideAccel {
	w := &WideAccel{
		id: id, name: name, eng: eng, fab: fab, xg: xg,
		cache: cacheset.New[wideLine](sets, ways),
		wb:    make(map[mem.Addr]int),
	}
	w.recvFn = w.Recv
	fab.Register(w)
	return w
}

// AttachObs registers the translation layer's instruments with r:
// counters xlate.merges / xlate.splits / xlate.falseshare mirroring the
// Merges / Splits / FalseShareRecalls fields, and the
// xlate.crossing.ticks histogram measuring a wide fill's sub-block
// issue to its last sub-block grant. A nil registry leaves the
// accelerator uninstrumented.
func (w *WideAccel) AttachObs(r *obs.Registry) {
	w.mMerges = r.Counter("xlate.merges")
	w.mSplits = r.Counter("xlate.splits")
	w.mFalseShare = r.Counter("xlate.falseshare")
	w.mCrossing = r.Histogram("xlate.crossing.ticks")
}

// wideAddr aligns an address to the accelerator's 128-byte granule.
func wideAddr(a mem.Addr) mem.Addr { return a &^ (WideBytes - 1) }

// halfIndex selects which host block within the wide line a falls in.
func halfIndex(a mem.Addr) int { return int(a>>mem.BlockShift) & 1 }

// ID implements coherence.Controller.
func (w *WideAccel) ID() coherence.NodeID { return w.id }

// Name implements coherence.Controller.
func (w *WideAccel) Name() string { return w.name }

// Recv implements coherence.Controller.
func (w *WideAccel) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		w.handleCPU(m)
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		w.handleData(m)
	case coherence.AWBAck:
		w.handleWBAck(m)
	case coherence.AInv:
		w.handleInv(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", w.name, m))
	}
}

func (w *WideAccel) send(ty coherence.MsgType, addr mem.Addr, data *mem.Block, dirty bool) {
	w.fab.Send(&coherence.Msg{Type: ty, Addr: addr, Src: w.id, Dst: w.xg, Data: data, Dirty: dirty})
}

// Lookup uses wide granularity; the tag array indexes 128-byte lines.
// cacheset works at any granularity as long as addresses are consistent,
// so we key entries by the wide-aligned address.
func (w *WideAccel) handleCPU(m *coherence.Msg) {
	wa := wideAddr(m.Addr)
	if _, busy := w.wb[wa]; busy {
		w.waiting.Park(wa, *m)
		return
	}
	e := w.cache.Lookup(wa)
	if e != nil && e.V.busy {
		w.waiting.Park(wa, *m)
		return
	}
	isStore := m.Type == coherence.ReqStore
	if e == nil {
		var victim *cacheset.Entry[wideLine]
		var ok bool
		e, victim, ok = w.cache.Allocate(wa, func(e *cacheset.Entry[wideLine]) bool {
			return !e.V.busy
		})
		if !ok {
			w.stalledOps = append(w.stalledOps, *m)
			return
		}
		if victim != nil {
			w.evict(victim.Addr, &victim.V)
		}
		w.fill(e, wa, m, isStore)
		return
	}
	h := halfIndex(m.Addr)
	switch {
	case e.V.data[h] == nil:
		// Half lost to a host invalidation: re-fetch.
		w.fill(e, wa, m, isStore)
	case !isStore:
		w.respond(m, e.V.data[h][m.Addr.Offset()])
	case e.V.half[h] == halfM || e.V.half[h] == halfE:
		e.V.half[h] = halfM
		e.V.dirty[h] = true
		e.V.data[h][m.Addr.Offset()] = m.Val
		w.respond(m, 0)
	default:
		// Wide upgrade: both halves must become writable.
		w.fill(e, wa, m, true)
	}
}

// fill issues the paired sub-block transactions for a wide line (§2.5:
// "it can request all needed host blocks").
func (w *WideAccel) fill(e *cacheset.Entry[wideLine], wa mem.Addr, op *coherence.Msg, excl bool) {
	ty := coherence.AGetS
	want := halfS
	if excl {
		ty = coherence.AGetM
		want = halfM
	}
	_ = want
	e.V.busy = true
	e.V.op = *op
	e.V.pending = 0
	for h := 0; h < 2; h++ {
		sub := wa + mem.Addr(h*mem.BlockBytes)
		if e.V.data[h] != nil {
			if !excl || e.V.half[h] != halfS {
				// Already usable at the required level.
				continue
			}
			// Upgrading a half held in S requires GetM from S — legal
			// in the interface (Table 1's S+Store row).
		}
		e.V.pending++
		e.V.inflight[h] = true
		w.send(ty, sub, nil, false)
	}
	if e.V.pending == 0 {
		w.completeFill(e)
	} else {
		e.V.issue = w.eng.Now()
	}
}

func (w *WideAccel) handleData(m *coherence.Msg) {
	wa := wideAddr(m.Addr)
	e := w.cache.Peek(wa)
	if e == nil || !e.V.busy {
		panic(fmt.Sprintf("%s: grant with no fill: %v", w.name, m))
	}
	h := halfIndex(m.Addr)
	switch m.Type {
	case coherence.ADataM:
		e.V.half[h] = halfM
	case coherence.ADataE:
		e.V.half[h] = halfE
	default:
		e.V.half[h] = halfS
	}
	e.V.data[h] = m.Data.Copy()
	e.V.dirty[h] = false
	e.V.inflight[h] = false
	e.V.pending--
	if e.V.pending == 0 {
		w.Merges++
		w.mMerges.Inc()
		w.mCrossing.Observe(float64(w.eng.Now() - e.V.issue))
		w.completeFill(e)
	}
}

func (w *WideAccel) completeFill(e *cacheset.Entry[wideLine]) {
	op := e.V.op
	e.V.busy = false
	e.V.op = coherence.Msg{}
	h := halfIndex(op.Addr)
	if op.Type == coherence.ReqStore {
		if e.V.half[h] == halfE {
			e.V.half[h] = halfM
		}
		e.V.dirty[h] = true
		e.V.data[h][op.Addr.Offset()] = op.Val
		w.respond(&op, 0)
	} else {
		w.respond(&op, e.V.data[h][op.Addr.Offset()])
	}
	w.settled(e.Addr)
}

// evict splits the wide line into per-half writebacks ("on a writeback,
// it can split the single accelerator block back into component blocks").
func (w *WideAccel) evict(wa mem.Addr, v *wideLine) {
	outstanding := 0
	for h := 0; h < 2; h++ {
		if v.data[h] == nil {
			continue
		}
		sub := wa + mem.Addr(h*mem.BlockBytes)
		switch {
		case v.half[h] == halfM || v.dirty[h]:
			w.send(coherence.APutM, sub, v.data[h].Copy(), true)
		case v.half[h] == halfE:
			w.send(coherence.APutE, sub, v.data[h].Copy(), false)
		default:
			w.send(coherence.APutS, sub, nil, false)
		}
		outstanding++
	}
	if outstanding > 0 {
		w.Splits++
		w.mSplits.Inc()
		w.wb[wa] = outstanding
	}
}

func (w *WideAccel) handleWBAck(m *coherence.Msg) {
	wa := wideAddr(m.Addr)
	n, ok := w.wb[wa]
	if !ok {
		panic(fmt.Sprintf("%s: WBAck with no writeback: %v", w.name, m))
	}
	if n > 1 {
		w.wb[wa] = n - 1
		return
	}
	delete(w.wb, wa)
	w.settled(wa)
}

// handleInv: the host invalidates ONE 64-byte block; the translation
// layer tracks per-half state (exactly what the guard-resident translator
// of §2.5 stores), so only the named half dies. Losing half of a wide
// line the accelerator was actively using is the false-sharing cost the
// paper warns about; FalseShareRecalls counts those events.
func (w *WideAccel) handleInv(m *coherence.Msg) {
	wa := wideAddr(m.Addr)
	h := halfIndex(m.Addr)
	if _, busy := w.wb[wa]; busy {
		// Wide eviction in flight: the Put/Inv race, resolved by the guard.
		w.send(coherence.AInvAck, m.Addr.Line(), nil, false)
		return
	}
	e := w.cache.Peek(wa)
	if e == nil || e.V.inflight[h] || e.V.data[h] == nil {
		// Absent or mid-fetch: B-style InvAck, no further action.
		w.send(coherence.AInvAck, m.Addr.Line(), nil, false)
		return
	}
	switch {
	case e.V.half[h] == halfM || e.V.dirty[h]:
		w.send(coherence.ADirtyWB, m.Addr.Line(), e.V.data[h].Copy(), true)
	case e.V.half[h] == halfE:
		w.send(coherence.ACleanWB, m.Addr.Line(), e.V.data[h].Copy(), false)
	default:
		w.send(coherence.AInvAck, m.Addr.Line(), nil, false)
	}
	if e.V.data[1-h] != nil {
		w.FalseShareRecalls++ // useful wide line broken up
		w.mFalseShare.Inc()
	}
	e.V.data[h] = nil
	e.V.dirty[h] = false
	e.V.half[h] = halfS
	if e.V.data[0] == nil && e.V.data[1] == nil && !e.V.busy {
		w.cache.Invalidate(wa)
	}
}

// respond completes a core operation after a one-tick hit latency.
func (w *WideAccel) respond(op *coherence.Msg, val byte) {
	r := op.Completion(w.id, val)
	w.fab.SendAfter(1, &r)
}

func (w *WideAccel) settled(wa mem.Addr) {
	if next, ok := w.waiting.Pop(wa); ok {
		w.fab.After(0, &next, w.recvFn)
	}
	for i := range w.stalledOps {
		w.fab.After(0, &w.stalledOps[i], w.recvFn)
	}
	w.stalledOps = w.stalledOps[:0]
}

// Outstanding reports open transactions.
func (w *WideAccel) Outstanding() int {
	n := len(w.wb) + len(w.stalledOps) + w.waiting.Len()
	w.cache.Visit(func(e *cacheset.Entry[wideLine]) {
		if e.V.busy {
			n++
		}
	})
	return n
}
