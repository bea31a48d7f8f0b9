package hammer

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
)

// dirTxnKind labels an open directory transaction.
type dirTxnKind int

const (
	dirGet dirTxnKind = iota
	dirWB
)

type dirTxn struct {
	kind      dirTxnKind
	requestor coherence.NodeID
}

// dirLine is the directory's per-line record: hammer keeps no sharer
// information, only an owner pointer (used to validate writebacks and to
// know when memory may be stale).
type dirLine struct {
	owner coherence.NodeID
	txn   *dirTxn
}

// Directory is the Hammer directory + memory controller. It serializes
// transactions per line and broadcasts every request to all peer caches.
type Directory struct {
	id    coherence.NodeID
	name  string
	fab   *network.Fabric
	cfg   Config
	sink  coherence.ErrorSink
	peers []coherence.NodeID // every cache in the system (including XG)

	memory  *mem.Memory
	lines   map[mem.Addr]*dirLine
	waiting coherence.LineQueue[coherence.Msg]
	// broadcastFn and memReplyFn are d.broadcast and d.memReply bound
	// once, for fabric.After.
	broadcastFn, memReplyFn func(*coherence.Msg)

	// Cov records (state, event) coverage.
	Cov *coherence.Coverage
	// NacksSent counts Put/ownership races resolved by Nack.
	NacksSent uint64
}

// NewDirectory builds and registers the directory over memory.
func NewDirectory(id coherence.NodeID, name string, fab *network.Fabric,
	memory *mem.Memory, cfg Config, sink coherence.ErrorSink) *Directory {
	d := &Directory{
		id: id, name: name, fab: fab, cfg: cfg, sink: sink,
		memory: memory,
		lines:  make(map[mem.Addr]*dirLine),
		Cov:    NewDirectoryCoverage(),
	}
	d.broadcastFn, d.memReplyFn = d.broadcast, d.memReply
	fab.Register(d)
	return d
}

// dirStates are the hammer.dir coverage states, indexed by covState.
var dirStates = []string{"Unowned", "Owned", "Unowned+busy", "Owned+busy"}

// dirTable is the hammer.dir class table.
var dirTable = func() *coherence.Table {
	t := coherence.NewTable("hammer.dir", dirStates...)
	t.DeclareAll(dirStates,
		[]string{"H:GetS", "H:GetSOnly", "H:GetM", "H:Put", "H:WBData", "H:Unblock"},
	)
	return t
}()

// NewDirectoryCoverage declares reachable (state, event) pairs.
func NewDirectoryCoverage() *coherence.Coverage { return dirTable.New() }

// AddPeer registers a cache for broadcast. Call once per cache before
// simulation starts.
func (d *Directory) AddPeer(id coherence.NodeID) { d.peers = append(d.peers, id) }

// Peers returns the broadcast set size.
func (d *Directory) Peers() int { return len(d.peers) }

// ID implements coherence.Controller.
func (d *Directory) ID() coherence.NodeID { return d.id }

// Name implements coherence.Controller.
func (d *Directory) Name() string { return d.name }

func (d *Directory) lineFor(addr mem.Addr) *dirLine {
	if l, ok := d.lines[addr]; ok {
		return l
	}
	l := &dirLine{owner: coherence.NodeNone}
	d.lines[addr] = l
	return l
}

// covState returns the index in dirStates of line l.
func (d *Directory) covState(l *dirLine) int {
	s := 0
	if l.owner != coherence.NodeNone {
		s = 1
	}
	if l.txn != nil {
		s += 2
	}
	return s
}

func (d *Directory) stateName(l *dirLine) string { return dirStates[d.covState(l)] }

func (d *Directory) protocolError(state string, m *coherence.Msg) {
	if d.cfg.TxnMods {
		d.sink.ReportError(coherence.ProtocolError{
			Where: d.name, Code: "HOST.Dir.Unexpected", Addr: m.Addr,
			Detail: fmt.Sprintf("state %s event %v", state, m.Type),
		})
		return
	}
	panic(fmt.Sprintf("%s: unexpected %v in state %s", d.name, m, state))
}

// Recv implements coherence.Controller.
func (d *Directory) Recv(m *coherence.Msg) {
	addr := m.Addr.Line()
	l := d.lineFor(addr)
	d.Cov.RecordMsg(d.covState(l), m.Type)
	switch m.Type {
	case coherence.HGetS, coherence.HGetSOnly, coherence.HGetM:
		if l.txn != nil || d.waiting.Blocked(addr, m) {
			// Strict per-line FIFO: nothing may overtake queued requests
			// (a Get overtaking a queued Put would read stale memory).
			d.waiting.Park(addr, *m)
			return
		}
		l.txn = &dirTxn{kind: dirGet, requestor: m.Src}
		d.fab.After(d.cfg.DirLat, m, d.broadcastFn)
	case coherence.HPut:
		if l.txn != nil || d.waiting.Blocked(addr, m) {
			d.waiting.Park(addr, *m)
			return
		}
		if l.owner != m.Src {
			// Put from a non-owner: a legitimate race (ownership moved
			// while the Put was in flight) or a stray accelerator Put.
			d.NacksSent++
			d.send(&coherence.Msg{Type: coherence.HNack, Addr: addr, Src: d.id, Dst: m.Src})
			d.pop(addr)
			return
		}
		l.txn = &dirTxn{kind: dirWB, requestor: m.Src}
		d.fab.SendAfter(d.cfg.DirLat, &coherence.Msg{Type: coherence.HWBAck, Addr: addr, Src: d.id, Dst: m.Src})
	case coherence.HWBData:
		if l.txn == nil || l.txn.kind != dirWB || l.txn.requestor != m.Src {
			d.protocolError(d.stateName(l), m)
			return
		}
		if m.Dirty && m.Data != nil {
			d.memory.Write(addr, m.Data)
		}
		l.owner = coherence.NodeNone
		l.txn = nil
		d.pop(addr)
	case coherence.HUnblock:
		if l.txn == nil || l.txn.kind != dirGet || l.txn.requestor != m.Src {
			d.protocolError(d.stateName(l), m)
			return
		}
		if !m.Shared {
			// The requestor took an owned state (E or M).
			l.owner = m.Src
		}
		l.txn = nil
		d.pop(addr)
	default:
		d.protocolError(d.stateName(l), m)
	}
}

// broadcast forwards a Get to every peer except the requestor and issues
// the speculative memory read.
func (d *Directory) broadcast(m *coherence.Msg) {
	addr := m.Addr.Line()
	var fwd coherence.MsgType
	switch m.Type {
	case coherence.HGetS:
		fwd = coherence.HFwdGetS
	case coherence.HGetSOnly:
		fwd = coherence.HFwdGetSOnly
	case coherence.HGetM:
		fwd = coherence.HFwdGetM
	}
	for _, p := range d.peers {
		if p == m.Src {
			continue
		}
		d.send(&coherence.Msg{Type: fwd, Addr: addr, Src: d.id, Dst: p, Requestor: m.Src})
	}
	d.fab.After(d.cfg.MemLat, m, d.memReplyFn)
}

// memReply sends the speculative memory data for the Get m, read from
// memory when the reply leaves (after the memory latency), not when the
// Get was broadcast.
func (d *Directory) memReply(m *coherence.Msg) {
	addr := m.Addr.Line()
	d.send(&coherence.Msg{Type: coherence.HMemData, Addr: addr, Src: d.id, Dst: m.Src,
		Data: d.memory.Read(addr)})
}

func (d *Directory) send(m *coherence.Msg) { d.fab.Send(m) }

// pop replays the line's oldest queued request synchronously, so no
// same-tick arrival can cut in front.
func (d *Directory) pop(addr mem.Addr) { d.waiting.Replay(addr, d.Recv) }

// Outstanding reports open transactions and queued requests.
func (d *Directory) Outstanding() int {
	n := d.waiting.Len()
	for _, l := range d.lines {
		if l.txn != nil {
			n++
		}
	}
	return n
}

// Owner reports the recorded owner of a line (for audits).
func (d *Directory) Owner(addr mem.Addr) coherence.NodeID {
	if l, ok := d.lines[addr.Line()]; ok {
		return l.owner
	}
	return coherence.NodeNone
}

// Memory exposes the backing store for checkers.
func (d *Directory) Memory() *mem.Memory { return d.memory }

// VisitOwned reports every line with a recorded owner, in ascending
// address order.
func (d *Directory) VisitOwned(fn func(addr mem.Addr, owner coherence.NodeID)) {
	for _, a := range mem.AppendSorted(nil, d.lines) {
		if l := d.lines[a]; l.owner != coherence.NodeNone {
			fn(a, l.owner)
		}
	}
}
