// Package core implements Crossing Guard (XG), the paper's contribution:
// trusted host hardware that (1) exposes the small standardized coherence
// interface of §2.1 to an accelerator, (2) translates it to the host
// protocol (Hammer-like MOESI or inclusive MESI, via per-host shims, §3),
// and (3) enforces the safety guarantees of Figure 1 so that a buggy or
// malicious accelerator can never crash, deadlock, or corrupt the host.
//
// Two variants are provided (§2.3): Full State, which tracks the state of
// every block the accelerator holds (a trusted inclusive directory), and
// Transactional, which tracks only open transactions and relies on the
// host-protocol tolerance modifications (hostproto/*.Config.TxnMods).
//
// # Sharded guard state
//
// One host fabric can carry several guards, each fronting its own
// accelerator ("one instance of Crossing Guard per accelerator in the
// system", §2). To keep a single guard's lookups O(1) as its footprint
// grows, the guard's mutable state — block table, open transactions, and
// the recall book — is split across a power-of-two number of address
// shards selected by the block address (Config.Shards). Shard count 1 is
// the degenerate case and behaves byte-for-byte like the unsharded
// guard; higher counts only re-bucket the same maps, so simulated timing
// is unchanged for any shard count.
package core

import (
	"fmt"
	"strconv"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/perm"
	"crossingguard/internal/sim"
)

// Mode selects the Crossing Guard variant.
type Mode int

const (
	// FullState tracks every block held by the accelerator (§2.3.1).
	FullState Mode = iota
	// Transactional tracks only open transactions (§2.3.2).
	Transactional
)

// String returns the variant name used in traces and docs.
func (m Mode) String() string {
	if m == FullState {
		return "FullState"
	}
	return "Transactional"
}

// Grant is the privilege level obtained from the host for a block.
type Grant int

const (
	GrantS Grant = iota // Shared: read permission
	GrantE              // Exclusive: clean write permission
	GrantM              // Modified: dirty write permission
)

// String returns the one-letter grant name.
func (g Grant) String() string { return [...]string{"S", "E", "M"}[g] }

// GetKind classifies host-side get requests.
type GetKind int

const (
	GetShared     GetKind = iota // upgradable shared request
	GetSharedOnly                // non-upgradable (read-only pages, §3.2)
	GetExcl                      // exclusive (write) request
)

// hostShim is the host-protocol-specific half of Crossing Guard. The
// guard core calls down; the shim calls back via the guard's grant/put
// hooks. Shims also receive all host-protocol messages.
type hostShim interface {
	// get issues a host request for a block.
	get(addr mem.Addr, kind GetKind)
	// put starts a host writeback carrying data (dirty=false for PutE).
	put(addr mem.Addr, data *mem.Block, dirty bool)
	// putS notifies the host of a shared eviction, if the host wants it.
	putS(addr mem.Addr)
	// suppressPutS reports whether this host allows silent S eviction
	// (Crossing Guard then drops PutS, §2.1).
	suppressPutS() bool
	// recv handles a host-protocol message.
	recv(m *coherence.Msg)
	// busy reports whether the shim has an open host-side transaction
	// for the line (the guard defers new accelerator requests for it).
	busy(addr mem.Addr) bool
	// outstanding reports open host-side transactions.
	outstanding() int
	// drain starts a guard-initiated writeback returning an owned block
	// to the host during quarantine recovery (the accelerator is fenced
	// and cannot be consulted; data is the guard's trusted copy or a
	// zero block, the Guarantee 2c substitution).
	drain(addr mem.Addr, data *mem.Block, dirty bool)
}

// Config parameterizes a Crossing Guard instance.
type Config struct {
	Mode Mode
	// Perms is the Border-Control-style page permission table
	// (Guarantee 0). A nil table allows everything (stress testing).
	Perms *perm.Table
	// Timeout is the Guarantee 2c deadline for accelerator responses to
	// Invalidate; 0 disables the watchdog.
	Timeout sim.Time
	// GuardLat is the processing latency added per crossing message.
	GuardLat sim.Time
	// Rate, when non-nil, bounds accelerator request bandwidth (§2.5).
	Rate *RateLimit
	// DisableAfter disables the accelerator after this many guarantee
	// violations (0 = never disable); disabled accelerators have their
	// requests dropped while the guard keeps answering the host.
	DisableAfter int
	// RecallRetries re-sends Invalidate up to this many times when a
	// recall deadline expires, doubling the deadline each attempt, before
	// the 2c watchdog answers on the accelerator's behalf. 0 keeps the
	// paper's single-shot timeout. Retries tolerate a lossy link to an
	// otherwise correct accelerator (the ECI-style fault model).
	RecallRetries int
	// QuarantineAfter fences the accelerator after this many guarantee
	// violations (0 = never): open recalls resolve from trusted state,
	// the Full State table's lines are reclaimed by the guard, further
	// requests are nacked, and the host keeps running on trusted copies.
	// Unlike DisableAfter's silent drop, quarantine keeps answering so a
	// confused-but-live accelerator observes its fencing.
	QuarantineAfter int
	// RecoverAfter enables quarantine recovery: after this many ticks of
	// backoff a quarantined device is drained, reset, and reintegrated
	// under a bumped guard epoch. 0 (the default) keeps quarantine
	// terminal — today's behavior, byte-for-byte.
	RecoverAfter sim.Time
	// MaxRecoveries bounds reintegrations: once a device has been
	// readmitted this many times, the next quarantine is permanent (a
	// flapping device converges to a fenced one). 0 defaults to 3 when
	// recovery is enabled.
	MaxRecoveries int
	// RecoverBackoff multiplies the backoff delay per prior readmission
	// (exponential backoff between recovery attempts). 0 defaults to 2;
	// 1 keeps the delay constant.
	RecoverBackoff int
	// RecoverBackoffCap, when nonzero, caps the backed-off delay.
	RecoverBackoffCap sim.Time
	// Shards is the power-of-two number of address shards the guard's
	// block table, open-transaction maps, and recall book are split
	// across. 0 and 1 both mean a single shard (the degenerate case,
	// byte-identical to the historical unsharded guard); any other value
	// must be a power of two. Sharding is pure state organization — it
	// never changes simulated timing or message order.
	Shards int
	// Spans enables causal span tracing: every accepted accelerator
	// crossing, host-initiated recall, and recovery cycle is assigned a
	// stable span id, emits paired span-begin/span-end (+ span-phase)
	// events on the trace bus, stamps the id on its outbound accelerator
	// messages, and feeds the per-phase xg.span.* latency histograms.
	// Off by default: span events interleave with the message trace and
	// add metrics, so golden traces and metric snapshots are only stable
	// with spans off (the BatchGrants pattern). Pure observability — span
	// tracing never changes simulated timing or message order.
	Spans bool
	// BatchGrants queues completed grants and flushes them once per tick
	// instead of sending each the moment its host transaction closes, so
	// grants for disjoint blocks leave the guard as one per-tick batch.
	// Off by default: batching reorders nothing but changes per-message
	// departure ticks, so golden traces are only stable with it off.
	BatchGrants bool
}

// guardShard is one address shard of the guard's mutable state. Every
// map is keyed by line address; a block lives in exactly one shard
// (selected by Guard.shard), so per-shard lookups stay O(1) no matter
// how many blocks the accelerator touches.
type guardShard struct {
	txns  map[mem.Addr]*accelTxn // open accelerator-initiated transactions (1b)
	hosts map[mem.Addr]*hostTxn  // open host-initiated recalls (2b, 2c)
	table *blockTable            // Full State only

	// ignoreInvAck marks addresses whose recall was resolved by a racing
	// Put; the accelerator's InvAck (sent from B) is consumed silently.
	ignoreInvAck map[mem.Addr]int
}

// pendingGrant is one queued accelerator grant awaiting the per-tick
// batch flush (Config.BatchGrants).
type pendingGrant struct {
	ty   coherence.MsgType
	addr mem.Addr
	data *mem.Block
	span uint64
}

// parkedReq is an accelerator request waiting for its line: a Get behind
// an open recall, or any request behind the shim's own host transaction.
// arrive is its original arrival tick (the span request phase start).
// The request is held by value: the delivered message is only borrowed.
type parkedReq struct {
	m      coherence.Msg
	arrive sim.Time
}

// Guard is one Crossing Guard instance: the trusted boundary between one
// accelerator cache hierarchy and the host coherence protocol.
type Guard struct {
	id    coherence.NodeID
	name  string
	eng   *sim.Engine
	fab   *network.Fabric
	cfg   Config
	sink  coherence.ErrorSink
	accel coherence.NodeID
	shim  hostShim

	// shards holds the address-sharded guard state; shardMask is
	// len(shards)-1 (power-of-two count).
	shards    []guardShard
	shardMask uint64

	// accelTag is the device label stamped on this guard's trace events
	// and per-accelerator metric names (0 for the first/only device, so
	// single-accelerator traces and metric sets are unchanged).
	accelTag int

	// pending is the per-tick grant batch (Config.BatchGrants); its
	// backing array is reused so steady-state batching allocates nothing.
	pending      []pendingGrant
	flushPending bool

	// parked holds requests deferred until their line settles; wake
	// re-runs them once the blocking recall or shim transaction closes.
	parked coherence.LineQueue[parkedReq]

	// Disabled is set once the error policy shuts the accelerator out.
	Disabled bool
	// Quarantined is set once the quarantine policy fences the
	// accelerator (graceful degradation: the host keeps running on
	// trusted state, the accelerator is nacked).
	Quarantined bool
	errors      int

	// epoch is the guard epoch: 0 until the first device reset, bumped
	// on every reintegration. Stamped on outbound accelerator messages;
	// accelerator messages carrying any other epoch are dropped as
	// XG.StaleEpoch.
	epoch uint32
	// recoveries counts completed reintegrations; once it reaches the
	// MaxRecoveries budget the next quarantine is permanent.
	recoveries int
	// recovering is set while a recovery (backoff, drain, or reset) is
	// in flight, so a second scheduling attempt is inert.
	recovering bool
	// permanent marks a quarantine that recovery will never reopen.
	permanent bool
	// resetHook, when set, reinitializes the fenced accelerator
	// hierarchy (caches to Invalid, sequencers flushed) under the new
	// epoch at the reset step of recovery.
	resetHook func(epoch uint32)

	// Statistics.
	PutSSuppressed  uint64 // PutS not forwarded (host evicts S silently)
	PutSForwarded   uint64
	SnoopsFiltered  uint64 // host requests answered without consulting the accelerator
	SnoopsForwarded uint64
	Timeouts        uint64
	RetriesSent     uint64 // Invalidates re-sent after a recall deadline expired
	RateDelayed     uint64
	ReqsBlocked     uint64 // requests dropped by guarantee enforcement
	// RecallsCoalesced counts host recalls merged into an already-open
	// recall for the same block (one Invalidate serves every waiter).
	RecallsCoalesced uint64
	// GrantsBatched / GrantBatches count grants delivered through the
	// per-tick batch path and the number of flushes (Config.BatchGrants).
	GrantsBatched uint64
	GrantBatches  uint64

	// Observability (nil-safe no-ops until AttachObs). The hot-path
	// instruments are fetched once; per-code violation counters are
	// looked up through obsReg on the cold violation path only.
	obsReg     *obs.Registry
	mPass      *obs.Counter
	mPassAccel *obs.Counter
	mCrossing  *obs.Histogram

	// Span tracing (Config.Spans). spanSeq numbers this guard's spans;
	// the emitted id is guard-node<<32|seq, unique and deterministic
	// across the guards of one machine. recoverySpan is the open recovery
	// cycle's span (0 outside recovery); recoveryMark/recoveryStart time
	// its phases. The mSpan* histogram pairs (aggregate + per-device) are
	// the crossing-anatomy instruments, prefetched like mCrossing.
	spanSeq       uint32
	recoverySpan  uint64
	recoveryMark  sim.Time
	recoveryStart sim.Time
	mSpanRequest  [2]*obs.Histogram
	mSpanCheck    [2]*obs.Histogram
	mSpanGrant    [2]*obs.Histogram
	mSpanRecall   [2]*obs.Histogram
	mSpanRetry    [2]*obs.Histogram
}

// accelTxn is an open accelerator-initiated transaction.
type accelTxn struct {
	kind  coherence.MsgType // AGetS, AGetM, APutM, APutE, APutS
	data  *mem.Block        // Put payload held at the guard
	dirty bool
	start sim.Time // acceptance tick, for the crossing-latency histogram
	// Span tracing (Config.Spans): the crossing's span id, its arrival
	// tick (request-phase start, before rate limiting and deferrals), and
	// the tick the request was dispatched to the host shim (check-phase
	// end). All zero with spans off.
	span   uint64
	arrive sim.Time
	fwd    sim.Time
}

// hostTxn is an open host-initiated recall toward the accelerator.
type hostTxn struct {
	wantData bool
	expect   Grant // what the guard believes the accelerator holds (Full State)
	known    bool  // expect is authoritative
	done     func(data *mem.Block, dirty bool, viaPut bool)
	// waiters holds the completion callbacks of recalls coalesced onto
	// this one: later host requests for the same block while this recall
	// is in flight do not send a second Invalidate — they wait here and
	// complete from the single response.
	waiters []func(data *mem.Block, dirty bool, viaPut bool)
	// gen numbers watchdog armings; a scheduled 2c timer only acts if the
	// generation it captured is still current (and the txn still open and
	// still the one registered for its address), so a canceled or
	// superseded watchdog can never fire against a completed or later
	// transaction.
	gen    uint64
	closed bool
	// Span tracing (Config.Spans): the recall's span id, its opening
	// tick, and the tick of the first watchdog retry (0 when the recall
	// never retried). All zero with spans off.
	span    uint64
	opened  sim.Time
	retryAt sim.Time
}

// complete invokes the recall's completion callback plus every coalesced
// waiter, in arrival order, with the same resolution. Callbacks copy the
// block before sending it anywhere, so sharing the pointer is safe.
func (ht *hostTxn) complete(data *mem.Block, dirty, viaPut bool) {
	ht.done(data, dirty, viaPut)
	for _, w := range ht.waiters {
		w(data, dirty, viaPut)
	}
	ht.waiters = nil
}

// NewGuard builds the guard core; a shim must be attached with
// attachShim (done by NewHammerGuard / NewMESIGuard).
func newGuard(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	accel coherence.NodeID, cfg Config, sink coherence.ErrorSink) *Guard {
	n := cfg.Shards
	if n <= 1 {
		n = 1
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("core: guard shard count %d is not a power of two", cfg.Shards))
	}
	g := &Guard{
		id: id, name: name, eng: eng, fab: fab, cfg: cfg, sink: sink, accel: accel,
		shards:    make([]guardShard, n),
		shardMask: uint64(n - 1),
	}
	for i := range g.shards {
		sh := &g.shards[i]
		sh.txns = make(map[mem.Addr]*accelTxn)
		sh.hosts = make(map[mem.Addr]*hostTxn)
		sh.ignoreInvAck = make(map[mem.Addr]int)
		if cfg.Mode == FullState {
			sh.table = newBlockTable()
		}
	}
	fab.Register(g)
	return g
}

// shard selects the state shard owning addr's block: the block index
// masked by the power-of-two shard count, so consecutive blocks land in
// consecutive shards and every byte of one block shares a shard.
func (g *Guard) shard(addr mem.Addr) *guardShard {
	return &g.shards[(uint64(addr.Line())/mem.BlockBytes)&g.shardMask]
}

// Shards reports the guard's shard count.
func (g *Guard) Shards() int { return len(g.shards) }

// SetAccelTag labels this guard with its accelerator device index
// (0-based). Tag 0 — the first or only device — leaves trace events and
// metric names exactly as before; nonzero tags stamp an accel field on
// the guard's trace events and register per-accelerator metric variants
// alongside the aggregates. Call before AttachObs.
func (g *Guard) SetAccelTag(tag int) { g.accelTag = tag }

// AccelTag reports the device label set by SetAccelTag.
func (g *Guard) AccelTag() int { return g.accelTag }

// metricSuffix is the per-accelerator metric-name suffix ("@a<tag>").
func (g *Guard) metricSuffix() string { return "@a" + strconv.Itoa(g.accelTag) }

// AttachObs registers the guard's instruments with r: the
// guard.check.pass counter (requests that cleared every guarantee
// check), per-code guard.violation.<code> counters (XG.G0a .. XG.G2c,
// XG.BadMessage, XG.BadSource, XG.Disabled), and the xg.crossing.ticks
// histogram measuring request acceptance to grant/writeback-ack. Each
// pass/violation counter also increments a per-accelerator variant
// suffixed "@a<device>" so reports can break guarantee outcomes down by
// accelerator. Violations and recall timeouts are also emitted as
// structured events on the fabric's trace bus when one is attached. A
// nil registry leaves the guard uninstrumented.
func (g *Guard) AttachObs(r *obs.Registry) {
	g.obsReg = r
	g.mPass = r.Counter("guard.check.pass")
	g.mPassAccel = r.Counter("guard.check.pass" + g.metricSuffix())
	g.mCrossing = r.Histogram("xg.crossing.ticks")
	if g.cfg.Spans {
		// The crossing-anatomy histograms exist only with span tracing on,
		// so span-free metric snapshots stay byte-identical.
		suffix := g.metricSuffix()
		g.mSpanRequest = [2]*obs.Histogram{r.Histogram("xg.span.request.ticks"), r.Histogram("xg.span.request.ticks" + suffix)}
		g.mSpanCheck = [2]*obs.Histogram{r.Histogram("xg.span.check.ticks"), r.Histogram("xg.span.check.ticks" + suffix)}
		g.mSpanGrant = [2]*obs.Histogram{r.Histogram("xg.span.grant.ticks"), r.Histogram("xg.span.grant.ticks" + suffix)}
		g.mSpanRecall = [2]*obs.Histogram{r.Histogram("xg.span.recall.ticks"), r.Histogram("xg.span.recall.ticks" + suffix)}
		g.mSpanRetry = [2]*obs.Histogram{r.Histogram("xg.span.retry.ticks"), r.Histogram("xg.span.retry.ticks" + suffix)}
	}
}

// ID implements coherence.Controller.
func (g *Guard) ID() coherence.NodeID { return g.id }

// AccelID reports the accelerator node this guard fronts (fault-injection
// wiring selects the guard<->accelerator channels with it).
func (g *Guard) AccelID() coherence.NodeID { return g.accel }

// Name implements coherence.Controller.
func (g *Guard) Name() string { return g.name }

// Recv dispatches accelerator-interface messages to the guard core and
// host-protocol messages to the shim. The accelerator's physical link
// terminates at the guard, so anything arriving from the accelerator
// that is not one of the interface's eight message types — in particular
// raw host-protocol messages a malicious accelerator might forge — is
// dropped and reported, never forwarded (the API-boundary property of
// §1/§2). The source check also rejects interface messages forged by a
// different accelerator device: each guard accepts interface traffic
// from exactly the one accelerator node it fronts.
func (g *Guard) Recv(m *coherence.Msg) {
	fromAccel := m.Src == g.accel
	if fromAccel && m.Epoch != g.epoch {
		// A pre-reset straggler (late data reply, duplicated or delayed
		// message) delivered after reintegration bumped the epoch: drop
		// it before it can touch the fresh table. Counted and traced as
		// XG.StaleEpoch but not charged to the error score — the current
		// device did not misbehave, its predecessor did.
		g.staleEpoch(m)
		return
	}
	switch {
	case m.Type.IsAccelRequest():
		if !fromAccel {
			g.violation("XG.BadSource", fmt.Sprintf("%v from non-accelerator node %d", m.Type, m.Src), m.Addr.Line())
			return
		}
		g.handleAccelRequest(m)
	case m.Type.IsAccelResponse():
		if !fromAccel {
			g.violation("XG.BadSource", fmt.Sprintf("%v from non-accelerator node %d", m.Type, m.Src), m.Addr.Line())
			return
		}
		g.handleAccelResponse(m)
	default:
		if fromAccel {
			g.ReqsBlocked++
			g.violation("XG.BadMessage", fmt.Sprintf("accelerator sent non-interface message %v", m.Type), m.Addr.Line())
			return
		}
		g.shim.recv(m)
	}
}

func (g *Guard) send(m *coherence.Msg) { g.fab.Send(m) }

// staleEpoch drops one accelerator message carrying an outdated epoch.
// Unlike violation, it neither scores the error nor reports to the sink:
// a stale straggler is the fenced predecessor's traffic, and charging it
// to the freshly readmitted device would re-trip quarantine on ghosts.
func (g *Guard) staleEpoch(m *coherence.Msg) {
	g.ReqsBlocked++
	g.obsReg.Counter("guard.violation.XG.StaleEpoch").Inc()
	g.obsReg.Counter("guard.violation.XG.StaleEpoch" + g.metricSuffix()).Inc()
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: obs.KindViolation,
			Addr: m.Addr.Line(), Accel: g.accelTag, Msg: m.Type,
			Payload: fmt.Sprintf("XG.StaleEpoch: %v from epoch %d dropped (guard epoch %d)", m.Type, m.Epoch, g.epoch),
		})
	}
}

// after applies the guard's processing latency.
func (g *Guard) after(fn func()) { g.eng.Schedule(g.cfg.GuardLat, fn) }

// newSpanID allocates the next causal span id for this guard:
// guard-node<<32|sequence, unique and deterministic across the guards of
// one machine. Only called with Config.Spans on, so span-free runs never
// advance the counter.
func (g *Guard) newSpanID() uint64 {
	g.spanSeq++
	return uint64(uint32(g.id))<<32 | uint64(g.spanSeq)
}

// spanEvent emits one span-lifecycle trace event (Config.Spans only).
// from, when nonzero, names the host node whose request caused the
// transition; the Perfetto exporter draws cross-device flow arrows from
// it.
func (g *Guard) spanEvent(kind obs.Kind, span uint64, addr mem.Addr, from coherence.NodeID, payload string) {
	if !g.cfg.Spans || span == 0 {
		return
	}
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: kind,
			Addr: addr, From: from, Accel: g.accelTag, Span: span, Payload: payload,
		})
	}
}

// observeSpan records one phase duration into an aggregate+per-device
// histogram pair (nil-safe before AttachObs).
func observeSpan(h [2]*obs.Histogram, v float64) {
	h[0].Observe(v)
	h[1].Observe(v)
}

// closeCrossingSpan ends one accelerator crossing's span and feeds the
// per-phase anatomy histograms: request (arrival to acceptance — rate
// limiting and busy-line deferrals), check (acceptance to host
// dispatch), grant (host dispatch to completion). A crossing consumed
// before its dispatch closure ran (the Put/Inv race) has no dispatch
// tick and contributes only its request phase.
func (g *Guard) closeCrossingSpan(t *accelTxn, addr mem.Addr, outcome string) {
	if !g.cfg.Spans || t.span == 0 {
		return
	}
	observeSpan(g.mSpanRequest, float64(t.start-t.arrive))
	if t.fwd != 0 {
		observeSpan(g.mSpanCheck, float64(t.fwd-t.start))
		observeSpan(g.mSpanGrant, float64(g.eng.Now()-t.fwd))
	}
	g.spanEvent(obs.KindSpanEnd, t.span, addr, 0, outcome)
}

// violation records a guarantee violation and applies the error policy.
func (g *Guard) violation(code, detail string, addr mem.Addr) {
	g.errors++
	g.obsReg.Counter("guard.violation." + code).Inc()
	g.obsReg.Counter("guard.violation." + code + g.metricSuffix()).Inc()
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: obs.KindViolation,
			Addr: addr, Accel: g.accelTag, Payload: code + ": " + detail,
		})
	}
	g.sink.ReportError(coherence.ProtocolError{
		Where: g.name, Code: code, Addr: addr, Detail: detail,
	})
	if g.cfg.DisableAfter > 0 && g.errors >= g.cfg.DisableAfter && !g.Disabled {
		g.Disabled = true
		g.obsReg.Counter("guard.violation.XG.Disabled").Inc()
		g.obsReg.Counter("guard.violation.XG.Disabled" + g.metricSuffix()).Inc()
		g.sink.ReportError(coherence.ProtocolError{
			Where: g.name, Code: "XG.Disabled", Addr: addr,
			Detail: fmt.Sprintf("accelerator disabled after %d violations", g.errors),
		})
	}
	if g.cfg.QuarantineAfter > 0 && g.errors >= g.cfg.QuarantineAfter && !g.Quarantined {
		g.enterQuarantine(addr)
	}
}

// enterQuarantine fences the accelerator (graceful degradation): every
// open recall is resolved immediately from trusted state, the Full State
// table's lines become guard-held trusted copies for answering future
// host forwards, and subsequent accelerator requests are nacked. The host
// never waits on a quarantined accelerator again.
func (g *Guard) enterQuarantine(addr mem.Addr) {
	g.Quarantined = true
	g.obsReg.Counter("guard.quarantine.entered").Inc()
	if g.cfg.Mode == FullState {
		g.obsReg.Counter("guard.quarantine.fenced_lines").Add(uint64(g.TableEntries()))
	}
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: obs.KindQuarantine,
			Addr: addr, Accel: g.accelTag, Payload: fmt.Sprintf("accelerator quarantined after %d violations", g.errors),
		})
	}
	g.sink.ReportError(coherence.ProtocolError{
		Where: g.name, Code: "XG.Quarantined", Addr: addr,
		Detail: fmt.Sprintf("accelerator quarantined after %d violations", g.errors),
	})
	// Resolve open recalls in global address order across every shard
	// (map iteration is randomized; resolution order must be
	// deterministic — and independent of the shard count). Mirrors
	// recallTimeout's trusted-state answer without charging additional
	// timeouts.
	var open []mem.Addr
	for i := range g.shards {
		open = mem.AppendSorted(open, g.shards[i].hosts)
	}
	for _, a := range open {
		sh := g.shard(a)
		ht := sh.hosts[a]
		g.obsReg.Counter("guard.quarantine.recalls").Inc()
		g.closeRecall(a, ht, "quarantine")
		g.answerFromTrusted(a, ht)
		if sh.table != nil {
			sh.table.drop(a)
		}
	}
	g.scheduleRecovery(addr)
}

// answerFromTrusted completes a recall on the accelerator's behalf: the
// guard's trusted copy when Full State kept one, a zero-block writeback
// when the guard knows the accelerator owned the block (the Guarantee 2c
// substitution), and a plain ack otherwise. The last case matters for
// Transactional guards, whose view is Unknown: answering without data
// lets the host serve its own — possibly stale — copy, which 2c
// sanctions, whereas injecting dirty zeros for a block the accelerator
// held at most shared would trample the live host owner's data (on
// broadcast hosts the requestor receives both "owners'" responses and
// may adopt the zeros).
func (g *Guard) answerFromTrusted(addr mem.Addr, ht *hostTxn) {
	if !ht.wantData {
		ht.complete(nil, false, false)
		return
	}
	if _, e := g.accelHolds(addr); e != nil && e.copy != nil {
		ht.complete(e.copy.Copy(), e.dirty, false)
		return
	}
	if ht.known {
		ht.complete(mem.Zero(), true, false)
		return
	}
	ht.complete(nil, false, false)
}

// --- accelerator requests (GetS, GetM, PutM, PutE, PutS) ---

func (g *Guard) handleAccelRequest(m *coherence.Msg) {
	if g.Quarantined {
		g.nackFenced(m)
		return
	}
	if g.Disabled {
		g.ReqsBlocked++
		return
	}
	arrive := g.eng.Now()
	// §2.5: rate-limit requests (responses are never delayed). The
	// limiter hands out a single wait per request (queue semantics).
	if g.cfg.Rate != nil {
		if wait := g.cfg.Rate.Admit(arrive); wait > 0 {
			g.RateDelayed++
			// m is borrowed: the delayed continuation keeps its own copy.
			mc := *m
			g.eng.Schedule(wait, func() { g.processAccelRequest(&mc, arrive) })
			return
		}
	}
	g.processAccelRequest(m, arrive)
}

// nackFenced refuses one request from a quarantined accelerator. Nack
// rather than silently drop so a confused-but-live accelerator's
// transactions terminate instead of hanging its internal state machine.
func (g *Guard) nackFenced(m *coherence.Msg) {
	g.ReqsBlocked++
	g.obsReg.Counter("guard.quarantine.nacks").Inc()
	addr := m.Addr.Line()
	g.after(func() { g.sendToAccel(coherence.ANack, addr, nil, false, 0) })
}

// processAccelRequest runs the guarantee checks after rate admission.
// arrive is the request's original arrival tick (kept across rate-limit
// waits and busy-line deferrals; it anchors the span request phase).
// A request resumed after a rate-limit wait or a parked wait is checked
// like a fresh arrival: one from before a device reset is dropped as
// stale, and a guard quarantined meanwhile nacks it.
func (g *Guard) processAccelRequest(m *coherence.Msg, arrive sim.Time) {
	if m.Epoch != g.epoch {
		g.staleEpoch(m)
		return
	}
	if g.Quarantined {
		g.nackFenced(m)
		return
	}
	if g.Disabled {
		g.ReqsBlocked++
		return
	}
	addr := m.Addr.Line()
	sh := g.shard(addr)

	// Guarantee 0: page permissions.
	access := perm.ReadWrite
	if g.cfg.Perms != nil {
		access = g.cfg.Perms.Lookup(addr)
	}
	if !access.AllowsRead() {
		g.ReqsBlocked++
		g.violation("XG.G0a", fmt.Sprintf("%v for page with no access", m.Type), addr)
		return
	}
	// Guarantee 0b: no exclusive (write) request, and no dirty data,
	// without page write permission.
	if m.Type == coherence.AGetM || m.Type == coherence.APutM {
		if !access.AllowsWrite() {
			g.ReqsBlocked++
			g.violation("XG.G0b", fmt.Sprintf("%v for read-only page", m.Type), addr)
			return
		}
	}

	// Park requests for lines with an open host-side transaction (e.g.
	// a relinquish writeback still in flight): a cache never issues a
	// Get while its own Put for the line is outstanding.
	if _, open := sh.txns[addr]; !open {
		if _, recalling := sh.hosts[addr]; !recalling && g.shim.busy(addr) {
			g.parked.Park(addr, parkedReq{*m, arrive})
			return
		}
	}

	// Guarantee 1b: at most one outstanding transaction per address.
	if _, open := sh.txns[addr]; open {
		g.ReqsBlocked++
		g.violation("XG.G1b", fmt.Sprintf("%v while a transaction is already open", m.Type), addr)
		return
	}
	// A request racing with an open host recall: only a Put is
	// meaningful (the legitimate Put/Inv race, §2.1); it resolves the
	// recall. Gets during a recall are parked until the recall closes.
	if ht, open := sh.hosts[addr]; open {
		switch m.Type {
		case coherence.APutM, coherence.APutE, coherence.APutS:
			g.resolveRecallByPut(addr, ht, m)
		default:
			g.parked.Park(addr, parkedReq{*m, arrive})
		}
		return
	}

	// Guarantee 1a: request consistent with the stable accelerator
	// state. Full State checks its table; Transactional relies on host
	// tolerance (§2.3.2) and can only sanity-check Puts carry data.
	if sh.table != nil {
		if err := sh.table.checkRequest(addr, m.Type); err != "" {
			g.ReqsBlocked++
			g.violation("XG.G1a", err, addr)
			// Every request gets exactly one response: fail Puts fast so
			// a *correct-but-confused* accelerator is not left hanging.
			switch m.Type {
			case coherence.APutM, coherence.APutE, coherence.APutS:
				g.after(func() { g.sendToAccel(coherence.AWBAck, addr, nil, false, 0) })
			}
			return
		}
	}
	// Malformed data-carrying requests (Guarantee 1 hygiene).
	if (m.Type == coherence.APutM || m.Type == coherence.APutE) && m.Data == nil {
		g.violation("XG.G1a", "Put without data", addr)
		m = &coherence.Msg{Type: m.Type, Addr: m.Addr, Src: m.Src, Dst: m.Dst, Data: mem.Zero()}
	}

	g.forwardRequest(addr, m, access, arrive)
}

// wake re-runs every request parked on addr once the line's blocking
// condition has cleared (its recall closed or the shim's host
// transaction retired): later in the same tick, after the event that
// cleared it, in park order. That is where a request re-checking its
// line once per tick would first see it free, since the message that
// clears a line is scheduled at least one hop before that tick's check.
// A request still blocked then parks again.
func (g *Guard) wake(addr mem.Addr) {
	reqs := g.parked.Take(addr)
	if len(reqs) == 0 {
		return
	}
	g.eng.Schedule(0, func() {
		for i := range reqs {
			g.processAccelRequest(&reqs[i].m, reqs[i].arrive)
		}
	})
}

// forwardRequest opens the transaction synchronously (so that racing
// host forwards observe it) and dispatches to the host shim after the
// guard's processing latency. The dispatch re-checks that the very same
// transaction is still open: a recall can consume a buffered Put in the
// latency window (the Put/Inv race), in which case nothing reaches the
// host. With span tracing on, the accepted crossing opens its span here
// and marks the check-phase end at dispatch.
func (g *Guard) forwardRequest(addr mem.Addr, m *coherence.Msg, access perm.Access, arrive sim.Time) {
	g.mPass.Inc()
	g.mPassAccel.Inc()
	sh := g.shard(addr)
	switch m.Type {
	case coherence.AGetS, coherence.AGetM:
		t := &accelTxn{kind: m.Type, start: g.eng.Now(), arrive: arrive}
		sh.txns[addr] = t
		if g.cfg.Spans {
			t.span = g.newSpanID()
			g.spanEvent(obs.KindSpanBegin, t.span, addr, 0, "crossing "+m.Type.String())
		}
		kind := GetExcl
		if m.Type == coherence.AGetS {
			kind = GetShared
			if !access.AllowsWrite() && g.cfg.Mode == Transactional {
				// Read-only page: never let the host hand us an
				// upgradable grant (Guarantee 0b). Transactional guards
				// need the host's non-upgradable GetS (§3.2); Full State
				// guards may use a plain GetS and keep a trusted data
				// copy when the host grants ownership anyway (§2.3.1).
				kind = GetSharedOnly
			}
		}
		g.after(func() {
			if sh.txns[addr] == t {
				t.fwd = g.eng.Now()
				g.spanEvent(obs.KindSpanPhase, t.span, addr, 0, "check")
				g.shim.get(addr, kind)
			}
		})
	case coherence.APutM, coherence.APutE:
		t := &accelTxn{kind: m.Type, data: m.Data.Copy(), dirty: m.Type == coherence.APutM,
			start: g.eng.Now(), arrive: arrive}
		sh.txns[addr] = t
		if g.cfg.Spans {
			t.span = g.newSpanID()
			g.spanEvent(obs.KindSpanBegin, t.span, addr, 0, "crossing "+m.Type.String())
		}
		g.after(func() {
			if sh.txns[addr] == t {
				t.fwd = g.eng.Now()
				g.spanEvent(obs.KindSpanPhase, t.span, addr, 0, "check")
				g.shim.put(addr, t.data.Copy(), t.dirty)
			}
		})
	case coherence.APutS:
		if g.shim.suppressPutS() {
			// Host evicts shared blocks silently; drop the message
			// (§2.1) and ack the accelerator directly.
			g.PutSSuppressed++
		} else {
			g.PutSForwarded++
			g.after(func() { g.shim.putS(addr) })
		}
		if sh.table != nil {
			sh.table.drop(addr)
		}
		g.after(func() { g.sendToAccel(coherence.AWBAck, addr, nil, false, 0) })
	}
}

// granted is called by the shim when the host satisfies a get.
func (g *Guard) granted(addr mem.Addr, level Grant, data *mem.Block, dirty bool) {
	sh := g.shard(addr)
	t, ok := sh.txns[addr]
	if !ok {
		panic(fmt.Sprintf("%s: host grant for %v with no transaction", g.name, addr))
	}
	delete(sh.txns, addr)
	if data == nil {
		data = mem.Zero()
	}
	if g.Quarantined {
		g.closeCrossingSpan(t, addr, "grant-quarantined")
		// The grant raced the quarantine: the host has handed the line
		// over, but the accelerator must not see it. The guard claims the
		// line itself. A trusted copy is kept only for exclusive grants,
		// where the guard is the host-side owner and must supply data on
		// later forwards; for a shared grant another host cache may own
		// the line, and a sharer volunteering data would hand the
		// requestor two data responses.
		if sh.table != nil {
			sh.table.grant(addr, level, level, level != GrantS, data, dirty)
		}
		return
	}
	// Guarantee 0b: an exclusive grant for a read-only page must be
	// degraded; the guard keeps the trusted copy so it can answer later
	// host forwards without the accelerator (§2.3.1).
	access := perm.ReadWrite
	if g.cfg.Perms != nil {
		access = g.cfg.Perms.Peek(addr)
	}
	accelLevel := level
	keepCopy := false
	if !access.AllowsWrite() && level != GrantS {
		accelLevel = GrantS
		keepCopy = true
	}
	if sh.table != nil {
		sh.table.grant(addr, accelLevel, level, keepCopy, data, dirty)
	}
	var ty coherence.MsgType
	switch {
	case t.kind == coherence.AGetM || accelLevel == GrantM:
		ty = coherence.ADataM
	case accelLevel == GrantE:
		ty = coherence.ADataE
	default:
		ty = coherence.ADataS
	}
	g.mCrossing.Observe(float64(g.eng.Now() - t.start))
	if b := g.fab.Bus; b.Active() {
		b.Emit(obs.Event{
			Tick: g.eng.Now(), Component: g.name, Kind: obs.KindGrant,
			Addr: addr, Accel: g.accelTag, Msg: ty, To: g.accel, Span: t.span,
			Payload: accelLevel.String(),
		})
	}
	g.closeCrossingSpan(t, addr, "grant "+accelLevel.String())
	if g.cfg.BatchGrants {
		g.queueGrant(ty, addr, data.Copy(), t.span)
		return
	}
	span := t.span
	g.after(func() { g.sendToAccel(ty, addr, data.Copy(), false, span) })
}

// queueGrant appends one completed grant to the per-tick batch and arms
// the flush for this tick's batch if it is not armed yet. The flush runs
// after the guard's processing latency — the same delay an unbatched
// grant pays — so batching merges departures without adding latency to
// the first grant of a tick.
func (g *Guard) queueGrant(ty coherence.MsgType, addr mem.Addr, data *mem.Block, span uint64) {
	g.pending = append(g.pending, pendingGrant{ty: ty, addr: addr, data: data, span: span})
	if g.flushPending {
		return
	}
	g.flushPending = true
	g.after(g.flushGrants)
}

// flushGrants sends every queued grant back-to-back in queue order (one
// batch per tick) and recycles the queue's backing array.
func (g *Guard) flushGrants() {
	g.flushPending = false
	batch := g.pending
	g.GrantBatches++
	g.GrantsBatched += uint64(len(batch))
	for i := range batch {
		g.sendToAccel(batch[i].ty, batch[i].addr, batch[i].data, false, batch[i].span)
		batch[i].data = nil
	}
	g.pending = batch[:0]
}

// putDone is called by the shim when the host acknowledges a writeback.
func (g *Guard) putDone(addr mem.Addr) {
	sh := g.shard(addr)
	t, ok := sh.txns[addr]
	if !ok {
		// The transaction may have been closed by a racing recall.
		return
	}
	g.mCrossing.Observe(float64(g.eng.Now() - t.start))
	delete(sh.txns, addr)
	if sh.table != nil {
		sh.table.drop(addr)
	}
	if g.Quarantined {
		// Writeback completed after the fence; the data is safely with the
		// host, but the fenced accelerator gets no ack (it would be nacked
		// if it asked again anyway).
		g.closeCrossingSpan(t, addr, "wback-quarantined")
		return
	}
	g.closeCrossingSpan(t, addr, "wback")
	span := t.span
	g.after(func() { g.sendToAccel(coherence.AWBAck, addr, nil, false, span) })
}

// openPut returns the open Put transaction for addr, if any (shims use
// its buffered data to answer forwards racing with the writeback).
func (g *Guard) openPut(addr mem.Addr) *accelTxn {
	if t, ok := g.shard(addr).txns[addr]; ok && t.data != nil {
		return t
	}
	return nil
}

// sendToAccel sends one guard->accelerator interface message, stamped
// with the guard epoch and, when span tracing is on, the causal span id
// of the transaction it belongs to (0 for messages outside any span).
func (g *Guard) sendToAccel(ty coherence.MsgType, addr mem.Addr, data *mem.Block, dirty bool, span uint64) {
	g.send(&coherence.Msg{Type: ty, Addr: addr, Src: g.id, Dst: g.accel, Data: data, Dirty: dirty,
		Epoch: g.epoch, Span: span})
}

// Outstanding reports open guard transactions and parked requests (for
// deadlock detection).
func (g *Guard) Outstanding() int {
	n := g.shim.outstanding() + g.parked.Len()
	for i := range g.shards {
		n += len(g.shards[i].txns) + len(g.shards[i].hosts)
	}
	return n
}

// StorageBytes models the hardware state this guard variant requires
// (§2.3, experiment E8): Full State pays tag+state per resident block
// (plus a data copy for read-only-owned blocks); both pay per open
// transaction.
func (g *Guard) StorageBytes() int {
	const tagStateBytes = 6 // ~42-bit tag + state bits, rounded up
	const txnBytes = 8 + mem.BlockBytes
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		n += (len(sh.txns) + len(sh.hosts)) * txnBytes
		if sh.table != nil {
			n += sh.table.entries()*tagStateBytes + sh.table.copies()*mem.BlockBytes
		}
	}
	return n
}

// Errors reports the number of guarantee violations recorded.
func (g *Guard) Errors() int { return g.errors }

// Epoch reports the guard epoch (0 until the first device reset).
func (g *Guard) Epoch() uint32 { return g.epoch }

// Recoveries reports completed quarantine reintegrations.
func (g *Guard) Recoveries() int { return g.recoveries }

// PermanentlyQuarantined reports whether the recovery policy has given up
// on this device (MaxRecoveries exhausted).
func (g *Guard) PermanentlyQuarantined() bool { return g.permanent }

// SetResetHook installs the device-reset callback recovery invokes at the
// reset step: the hook must reinitialize the accelerator hierarchy
// (caches to Invalid, sequencers flushed) and adopt the new epoch.
// Call before the simulation starts.
func (g *Guard) SetResetHook(fn func(epoch uint32)) { g.resetHook = fn }

// Mode reports the guard variant.
func (g *Guard) Mode() Mode { return g.cfg.Mode }

// VisitBlocks reports the Full State block table across every shard in
// ascending address order (no-op for Transactional guards, which keep no
// block state).
func (g *Guard) VisitBlocks(fn func(addr mem.Addr, accel, host Grant, hasCopy bool)) {
	for _, a := range g.tableAddrs() {
		e := g.shard(a).table.lookup(a)
		fn(a, e.accel, e.host, e.copy != nil)
	}
}

// tableAddrs lists the Full State table's blocks across every shard in
// ascending address order, so walks over them are deterministic and
// independent of the shard count.
func (g *Guard) tableAddrs() []mem.Addr {
	var addrs []mem.Addr
	for i := range g.shards {
		if t := g.shards[i].table; t != nil {
			addrs = mem.AppendSorted(addrs, t.blocks)
		}
	}
	return addrs
}

// TableEntries reports the Full State table occupancy summed across
// shards (0 for Transactional).
func (g *Guard) TableEntries() int {
	n := 0
	for i := range g.shards {
		if t := g.shards[i].table; t != nil {
			n += t.entries()
		}
	}
	return n
}

// tableCopies sums the Full State tables' trusted data copies across
// every shard (tests and storage accounting).
func (g *Guard) tableCopies() int {
	n := 0
	for i := range g.shards {
		if t := g.shards[i].table; t != nil {
			n += t.copies()
		}
	}
	return n
}

// openRecalls counts open host-initiated recalls across every shard.
func (g *Guard) openRecalls() int {
	n := 0
	for i := range g.shards {
		n += len(g.shards[i].hosts)
	}
	return n
}

// openTxns counts open accelerator-initiated transactions across every
// shard.
func (g *Guard) openTxns() int {
	n := 0
	for i := range g.shards {
		n += len(g.shards[i].txns)
	}
	return n
}
