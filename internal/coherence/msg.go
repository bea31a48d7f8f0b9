// Package coherence defines the vocabulary shared by every protocol agent
// in the system: node identities, coherence message types (for the
// Crossing Guard accelerator interface, the Hammer-like host protocol and
// the MESI two-level host protocol), the controller interface, and the
// transition-coverage recorder used to report stress-test coverage the
// same way the paper does (§4.1).
package coherence

import (
	"fmt"

	"crossingguard/internal/mem"
)

// NodeID identifies a protocol agent (cache, directory, guard, sequencer).
type NodeID int

// NodeNone is the zero/invalid node.
const NodeNone NodeID = -1

// MsgType enumerates every coherence message in the system. Types are
// grouped by protocol: A* is the Crossing Guard accelerator interface
// (paper §2.1), H* the Hammer-like host protocol, M* the MESI two-level
// host protocol, and X* accelerator-internal messages for the two-level
// accelerator hierarchy.
type MsgType int

const (
	MsgInvalid MsgType = iota // zero value; no valid message carries it

	// --- Crossing Guard accelerator interface (paper §2.1) ---
	// Accelerator -> XG requests (exactly five).
	AGetS
	AGetM // request write permission
	APutM // evict modified data; carries data
	APutE // evict exclusive (clean) data; carries data
	APutS // evict a shared copy (no data)
	// XG -> accelerator responses (exactly four).
	ADataS
	ADataE // data with exclusive (clean) permission
	ADataM // data with write permission
	AWBAck // writeback acknowledged; line is no longer cached
	// XG -> accelerator request (exactly one).
	AInv
	// Accelerator -> XG responses (exactly three).
	AInvAck
	ACleanWB // carries data
	ADirtyWB // carries data
	// XG -> accelerator quarantine extension (not part of the paper's
	// §2.1 vocabulary): service refused to a fenced accelerator. Only a
	// quarantined — hence already misbehaving — accelerator ever sees it.
	ANack

	// --- Hammer-like exclusive MOESI host protocol ---
	// cache -> directory
	HGetS
	HGetSOnly // non-upgradable GetS (host modification for Transactional XG)
	HGetM     // request write permission
	HPut      // first half of two-part writeback (no data)
	HWBData   // second half (data)
	HUnblock  // requestor -> directory: transaction complete
	// directory -> cache
	HFwdGetS
	HFwdGetSOnly // forwarded non-upgradable GetS
	HFwdGetM     // owner must send data to Requestor and invalidate
	HWBAck       // writeback accepted
	HNack        // writeback raced a forward; retry resolved at the cache
	HMemData     // speculative memory data to the requestor
	// cache -> cache (responses to the requestor)
	HData
	HAck // invalidation/probe acknowledgement to the requestor

	// --- MESI two-level inclusive host protocol ---
	// L1 -> L2
	MGetS
	MGetM     // request write permission
	MGetInstr // non-upgradable (instruction-style) GetS
	MPutM     // writeback, carries data, Dirty flag distinguishes PutM/PutE
	MPutS     // sharer eviction notice (exact sharer tracking)
	// L2 -> L1
	MDataE    // exclusive grant (zero acks expected)
	MDataS    // shared grant
	MDataAcks // data for a GetM; Acks = invalidation acks to await
	MInv      // invalidate; Requestor = who to ack
	MInvToL2  // invalidate; ack back to the L2 (inclusive eviction)
	MFwdGetS  // owner must send data to Requestor and a copy to the L2
	MFwdGetM  // owner must send data to Requestor and invalidate
	MWBAck    // writeback acknowledged
	// L1 -> L1 / L1 -> L2 responses
	MInvAck     // to the requestor named in MInv
	MInvAckToL2 // to the L2 (inclusive eviction)
	MDataOwner  // owner's data directly to the requestor
	MCopyToL2   // downgrade copy of owner data back to the L2
	MUnblock    // requestor -> L2: transaction complete

	// --- Accelerator-internal (two-level accelerator hierarchy) ---
	// accel L1 -> accel L2
	XGetS
	XGetM // request write permission
	XPutM // evict modified data; carries data
	XPutS // evict a shared copy (no data)
	// accel L2 -> accel L1
	XDataS
	XDataE // data with exclusive (clean) permission
	XDataM // data with write permission
	XInv   // invalidate
	XWBAck // writeback acknowledged
	// accel L1 -> accel L2
	XInvAck
	XInvWB // invalidation response carrying dirty data

	// --- Sequencer-level (core <-> its private cache) ---
	ReqLoad
	ReqStore  // store request; Val carries the byte to write
	RespLoad  // load completion; Val carries the byte read
	RespStore // store completion

	numMsgTypes
)

// NumMsgTypes is the size of the MsgType value space (one past the last
// defined type). Hot-path accounting indexes fixed arrays of this length
// instead of maps; values outside [0, NumMsgTypes) — possible only when a
// fuzzer forges a message with an undefined type — must be clamped to
// MsgInvalid by the indexer.
const NumMsgTypes = int(numMsgTypes)

var msgTypeNames = [...]string{
	MsgInvalid: "Invalid",

	AGetS: "A:GetS", AGetM: "A:GetM", APutM: "A:PutM", APutE: "A:PutE", APutS: "A:PutS",
	ADataS: "A:DataS", ADataE: "A:DataE", ADataM: "A:DataM", AWBAck: "A:WBAck",
	AInv: "A:Inv", AInvAck: "A:InvAck", ACleanWB: "A:CleanWB", ADirtyWB: "A:DirtyWB",
	ANack: "A:Nack",

	HGetS: "H:GetS", HGetSOnly: "H:GetSOnly", HGetM: "H:GetM", HPut: "H:Put",
	HWBData: "H:WBData", HUnblock: "H:Unblock",
	HFwdGetS: "H:FwdGetS", HFwdGetSOnly: "H:FwdGetSOnly", HFwdGetM: "H:FwdGetM",
	HWBAck: "H:WBAck", HNack: "H:Nack", HMemData: "H:MemData",
	HData: "H:Data", HAck: "H:Ack",

	MGetS: "M:GetS", MGetM: "M:GetM", MGetInstr: "M:GetInstr", MPutM: "M:PutM", MPutS: "M:PutS",
	MDataE: "M:DataE", MDataS: "M:DataS", MDataAcks: "M:DataAcks",
	MInv: "M:Inv", MInvToL2: "M:InvToL2", MFwdGetS: "M:FwdGetS", MFwdGetM: "M:FwdGetM",
	MWBAck: "M:WBAck", MInvAck: "M:InvAck", MInvAckToL2: "M:InvAckToL2",
	MDataOwner: "M:DataOwner", MCopyToL2: "M:CopyToL2", MUnblock: "M:Unblock",

	XGetS: "X:GetS", XGetM: "X:GetM", XPutM: "X:PutM", XPutS: "X:PutS",
	XDataS: "X:DataS", XDataE: "X:DataE", XDataM: "X:DataM", XInv: "X:Inv",
	XWBAck: "X:WBAck", XInvAck: "X:InvAck", XInvWB: "X:InvWB",

	ReqLoad: "Req:Load", ReqStore: "Req:Store", RespLoad: "Resp:Load", RespStore: "Resp:Store",
}

// String renders the protocol-prefixed wire name (e.g. "A:GetS").
func (t MsgType) String() string {
	if t >= 0 && int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// CarriesData reports whether messages of this type carry a data block in
// a correct protocol; used for byte accounting and guard checks.
func (t MsgType) CarriesData() bool {
	switch t {
	case APutM, APutE, ADataS, ADataE, ADataM, ACleanWB, ADirtyWB,
		HWBData, HMemData, HData,
		MPutM, MDataE, MDataS, MDataAcks, MDataOwner, MCopyToL2,
		XPutM, XDataS, XDataE, XDataM, XInvWB,
		RespLoad:
		return true
	}
	return false
}

// IsAccelRequest reports whether t is one of the five accelerator->XG
// requests of the Crossing Guard interface.
func (t MsgType) IsAccelRequest() bool {
	switch t {
	case AGetS, AGetM, APutM, APutE, APutS:
		return true
	}
	return false
}

// IsAccelResponse reports whether t is one of the three accelerator->XG
// responses of the Crossing Guard interface.
func (t MsgType) IsAccelResponse() bool {
	switch t {
	case AInvAck, ACleanWB, ADirtyWB:
		return true
	}
	return false
}

// ControlBytes and DataBytes size the performance/traffic model: every
// message has an 8-byte header; data-bearing messages add one block.
const (
	ControlBytes = 8
	DataBytes    = mem.BlockBytes
)

// Msg is a coherence message. A single struct serves every protocol;
// unused fields are zero.
//
// Ownership: a message travels by value. network.Fabric.Send copies *m
// into its pooled in-flight record, so a sender may build the message on
// its stack and reuse or discard it as soon as Send returns. A receiver
// only borrows the pointer Controller.Recv hands it: the pointee is the
// fabric's record, valid until Recv returns and zeroed right after (a
// kept pointer then reads MsgInvalid at address 0). Anything that must
// outlive the handler — a parked request, an open transaction's
// operation, a deferred forward — stores its own copy by value. The
// Data block is not copied: it is shared by reference and
// must not be mutated once sent, so senders that keep mutating a block
// send a copy of it.
//
// The sub-word fields come last, packed into one word, so a message is
// 80 bytes rather than 96: every send copies it once and every delivery
// zeroes it once.
type Msg struct {
	Type      MsgType
	Addr      mem.Addr
	Src, Dst  NodeID
	Requestor NodeID     // original requestor, for forwarded requests
	Data      *mem.Block // nil when absent
	Acks      int        // invalidation acks the requestor must await
	Tag       uint64     // sequencer-level operation id, echoed in responses
	// Span is the causal span id of the guard transaction this message
	// belongs to (core.Config.Spans). 0 — span tracing disabled, or a
	// message outside any guard transaction — is omitted from rendering,
	// so span-free traces are byte-identical to the pre-span format.
	Span uint64
	// Epoch is the guard epoch the message was issued under. 0 — the
	// epoch of a guard that has never been reset — is omitted from
	// rendering, so pre-recovery traces are byte-identical. A guard that
	// has reintegrated its device stamps its bumped epoch on every
	// outbound accelerator message and rejects accelerator messages
	// carrying an older epoch as XG.StaleEpoch.
	Epoch  uint32
	Dirty  bool // data is modified relative to memory
	Shared bool // responder also holds/held the block shared
	Val    byte // byte operand/result for sequencer-level ops
}

// Completion returns the sequencer-level response to the ReqLoad or
// ReqStore operation m: RespLoad or RespStore from src back to m's
// sender, carrying val and echoing m's tag.
func (m *Msg) Completion(src NodeID, val byte) Msg {
	ty := RespLoad
	if m.Type == ReqStore {
		ty = RespStore
	}
	return Msg{Type: ty, Addr: m.Addr, Src: src, Dst: m.Src, Val: val, Tag: m.Tag}
}

// Bytes returns the modeled wire size of the message.
func (m *Msg) Bytes() int {
	if m.Data != nil {
		return ControlBytes + DataBytes
	}
	return ControlBytes
}

// String renders the message one-line: type, address, src->dst, and any
// non-zero auxiliary fields (requestor, data/dirty, acks, shared).
func (m *Msg) String() string {
	s := fmt.Sprintf("%v %v %d->%d", m.Type, m.Addr, m.Src, m.Dst)
	if m.Requestor != 0 && m.Requestor != NodeNone {
		s += fmt.Sprintf(" req=%d", m.Requestor)
	}
	if m.Data != nil {
		s += " +data"
		if m.Dirty {
			s += "(dirty)"
		}
	}
	if m.Acks != 0 {
		s += fmt.Sprintf(" acks=%d", m.Acks)
	}
	if m.Shared {
		s += " shared"
	}
	if m.Epoch != 0 {
		s += fmt.Sprintf(" epoch=%d", m.Epoch)
	}
	if m.Span != 0 {
		s += fmt.Sprintf(" span=%x", m.Span)
	}
	return s
}

// Controller is a protocol agent: something that receives messages.
type Controller interface {
	ID() NodeID
	Name() string
	// Recv handles one delivered message. m is borrowed: it points into
	// the fabric's delivery record, is valid only until Recv returns,
	// and is zeroed afterwards. A controller that keeps the message
	// (parks it, records it as a transaction's operation, defers it)
	// stores a copy — *m by value — never m itself.
	Recv(m *Msg)
}

// SortedNodes returns the keys of a node set in ascending order, so that
// iteration-driven message emission is deterministic (Go map iteration is
// randomized; simulations must be reproducible).
func SortedNodes(set map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
