// Package network provides the interconnect model: point-to-point
// channels between protocol agents with configurable latency, optional
// FIFO ordering, and per-channel traffic accounting.
//
// The paper requires the network between Crossing Guard and the
// accelerator to be ordered, while host and accelerator internals may use
// unordered networks; both are supported per channel. Buffering is
// unbounded, so protocol-level deadlock shows up as a quiesced engine with
// outstanding transactions (caught by harness watchdogs) rather than as
// network backpressure.
//
// # Hot-path design
//
// Send/deliver is the single most executed path in the simulator, so it
// is allocation-free in steady state: deliveries ride pooled delivRec
// records (free-listed, callback bound once per record) through
// sim.Engine.ScheduleEventAt instead of a fresh closure per message,
// per-channel traffic accounting indexes fixed per-type arrays instead
// of maps, and trace events are only constructed when the bus is Active.
//
// Messages ride the records by value. Send copies the caller's message
// into a record, so &coherence.Msg{...} literals at call sites stay on
// the sender's stack; the receiver borrows the record's copy for the
// duration of Recv, after which the record is zeroed and recycled (see
// coherence.Msg for the ownership contract). After and SendAfter reuse
// the same records for a controller's delayed message work, replacing a
// closure per deferred message. TestFabricSendAllocFree and
// BenchmarkFabricSend pin the 0 allocs/op budget; see ARCHITECTURE.md
// "Hot path & allocation discipline".
package network

import (
	"fmt"
	"math/rand"

	"crossingguard/internal/coherence"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// Config describes one directed channel.
type Config struct {
	// Latency is the fixed delivery delay in ticks.
	Latency sim.Time
	// Jitter adds a uniformly random extra delay in [0, Jitter]; with
	// Ordered set, jitter perturbs arrival but never reorders.
	Jitter sim.Time
	// Ordered forces FIFO delivery (required accel<->XG, paper §2.1).
	Ordered bool
}

type chanKey struct{ src, dst coherence.NodeID }

// Stats is a point-in-time copy of the traffic counters for one directed
// channel, as returned by StatsFor/VisitStats. The per-type maps are
// materialized on demand from the channel's internal fixed arrays (the
// hot path never touches a map); they are never nil-checked by readers
// because indexing a nil map yields zero, matching an unused channel.
type Stats struct {
	// Msgs and Bytes count all traffic on the channel.
	Msgs, Bytes uint64
	// MsgsByType counts messages per message type (types with no traffic
	// are absent).
	MsgsByType map[coherence.MsgType]uint64
	// BytesByType counts bytes per message type (types with no traffic
	// are absent).
	BytesByType map[coherence.MsgType]uint64
}

type channel struct {
	cfg         Config
	lastArrival sim.Time
	inflight    int // messages sent but not yet delivered on this channel

	// Traffic accounting: fixed arrays indexed by MsgType, so the per-send
	// cost is two integer adds instead of two map operations, and channels
	// that never carry typed traffic allocate nothing for it.
	msgs, bytes uint64
	msgsByType  [coherence.NumMsgTypes]uint64
	bytesByType [coherence.NumMsgTypes]uint64
}

// account records one logical send. Types outside the defined value space
// (a fuzzer forging an undefined MsgType) are clamped into the MsgInvalid
// bucket rather than crashing the accounting.
func (ch *channel) account(m *coherence.Msg) {
	t := m.Type
	if t < 0 || int(t) >= coherence.NumMsgTypes {
		t = coherence.MsgInvalid
	}
	b := uint64(m.Bytes())
	ch.msgs++
	ch.bytes += b
	ch.msgsByType[t]++
	ch.bytesByType[t] += b
}

// snapshot materializes the externally visible Stats copy.
func (ch *channel) snapshot() Stats {
	s := Stats{Msgs: ch.msgs, Bytes: ch.bytes}
	for t, n := range ch.msgsByType {
		if n == 0 {
			continue
		}
		if s.MsgsByType == nil {
			s.MsgsByType = make(map[coherence.MsgType]uint64)
			s.BytesByType = make(map[coherence.MsgType]uint64)
		}
		s.MsgsByType[coherence.MsgType(t)] = n
		s.BytesByType[coherence.MsgType(t)] = ch.bytesByType[t]
	}
	return s
}

// Delivery describes one scheduled arrival of an intercepted message. An
// Interceptor turns a single Send into zero (drop), one, or several
// deliveries, each possibly perturbed.
type Delivery struct {
	// Msg is the message to deliver — the intercepted one, or a
	// corrupted copy (the intercepted message is borrowed, so corruption
	// must copy). The fabric copies *Msg into its delivery record before
	// Intercept's caller returns; the pointee need not outlive that.
	Msg *coherence.Msg
	// ExtraDelay is added to the channel's configured latency.
	ExtraDelay sim.Time
	// Unordered exempts this delivery from the FIFO clamp on ordered
	// channels, letting it overtake earlier traffic (reorder injection).
	// An unordered arrival does not advance the channel's FIFO horizon.
	Unordered bool
}

// Interceptor perturbs channel traffic for fault injection. Intercept is
// consulted once per Send, before delivery is scheduled; returning
// handled=false leaves the message on the normal path. With handled=true
// the fabric schedules exactly the returned deliveries — an empty slice
// drops the message. m is borrowed for the call only (it is a fabric
// scratch copy, overwritten by the next Send), and the fabric consumes
// the returned slice before any later Send reaches Intercept again, so
// an interceptor may reuse one buffer for it. Interceptors must be
// deterministic (seeded RNG, no wall clock): a fabric with the same
// interceptor state replays the same schedule.
type Interceptor interface {
	Intercept(now sim.Time, m *coherence.Msg) (deliveries []Delivery, handled bool)
}

// delivRec is one pooled scheduled message: an in-flight delivery, or a
// controller's delayed continuation (After). It is the closure-free
// replacement for the per-message func() the fabric used to hand the
// engine, and it holds its message by value. The callback (run) is bound
// into ev exactly once, when the record is first allocated; afterwards
// the record cycles through the fabric's free list, so steady-state
// scheduling costs zero allocations. A record belongs to the engine from
// scheduling until run fires; run lends &m to the receiver, then zeroes
// the record (no message or data block is pinned by the pool, and a
// pointer kept past Recv reads MsgInvalid) and releases it.
type delivRec struct {
	fab *Fabric
	// A delivery has ch and dst set; an After continuation has fn set.
	ch   *channel
	dst  coherence.Controller
	fn   func(*coherence.Msg)
	m    coherence.Msg
	ev   sim.Timed
	next *delivRec // free-list link, nil while in flight
}

// run is the event callback: for a delivery, accounting, trace and Recv;
// for a continuation, fn. Either borrows &r.m, then the record is
// recycled.
func (r *delivRec) run() {
	f := r.fab
	if r.fn != nil {
		r.fn(&r.m)
	} else {
		r.ch.inflight--
		f.mInflight.Add(-1)
		if b := f.Bus; b.Active() {
			b.Emit(obs.MsgEvent(f.eng.Now(), obs.KindRecv, r.dst.Name(), &r.m))
		}
		r.dst.Recv(&r.m)
	}
	// One statement per field: a tuple assignment would stage the
	// message through a temporary.
	r.ch = nil
	r.dst = nil
	r.fn = nil
	r.m = coherence.Msg{}
	r.next = f.freeRec
	f.freeRec = r
}

// Fabric routes messages between registered controllers.
type Fabric struct {
	eng      *sim.Engine
	rng      *rand.Rand
	nodes    map[coherence.NodeID]coherence.Controller
	chans    map[chanKey]*channel
	defaults Config
	routes   map[chanKey]Config

	// freeRec heads the record pool. Records are pushed back in run once
	// their receiver returns, so a simulation's pool size converges to
	// its peak count of scheduled messages and then stops allocating.
	freeRec *delivRec

	// send is f.Send bound once, the continuation SendAfter schedules.
	send func(*coherence.Msg)
	// intercepted is the scratch copy of the message handed to the
	// interceptor: passing the caller's pointer through an interface call
	// would make every Send's argument escape to the heap.
	intercepted coherence.Msg

	// Bus, when non-nil, receives a structured trace event for every
	// send, delivery, and drop (obs.KindSend/KindRecv/KindDrop) — the
	// typed replacement for the old printf trace ring, used by
	// cmd/xgtrace and the campaign runner's failure artifacts. It is the
	// system-wide trace bus: other components (the guard) also emit
	// through it, since every component already holds the fabric.
	// Emission sites gate on Bus.Active, so a bus nobody listens to
	// costs nothing on the hot path.
	Bus *obs.Bus

	// Dropped counts sends to unregistered destinations (possible only
	// when a fuzzing accelerator invents node IDs); they are counted and
	// discarded rather than crashing the host, mirroring how real
	// hardware ignores mis-routed packets.
	Dropped uint64

	// interceptor, when non-nil, sees every Send and may drop, duplicate,
	// delay, corrupt, or reorder it (the fault-injection hook).
	interceptor Interceptor

	// Metrics instruments (nil-safe no-ops without AttachObs): message
	// and byte totals, drops, current/peak in-flight messages, and the
	// per-send channel-depth distribution — the queue-occupancy view of
	// the unbounded-buffer interconnect.
	mMsgs, mBytes, mDropped *obs.Counter
	mInflight               *obs.Gauge
	mDepth                  *obs.Histogram
}

// NewFabric returns a fabric using eng for delivery scheduling and seed
// for latency jitter.
func NewFabric(eng *sim.Engine, seed int64, defaults Config) *Fabric {
	f := &Fabric{
		eng:      eng,
		rng:      rand.New(rand.NewSource(seed)),
		nodes:    make(map[coherence.NodeID]coherence.Controller),
		chans:    make(map[chanKey]*channel),
		defaults: defaults,
		routes:   make(map[chanKey]Config),
	}
	f.send = f.Send
	return f
}

// AttachObs registers the fabric's instruments with r: counters
// net.msgs / net.bytes / net.dropped, the net.inflight occupancy gauge
// (with high-water mark), and the net.channel.depth histogram of the
// destination channel's queue depth observed at each send. Call before
// traffic starts; a nil registry leaves the fabric uninstrumented.
func (f *Fabric) AttachObs(r *obs.Registry) {
	f.mMsgs = r.Counter("net.msgs")
	f.mBytes = r.Counter("net.bytes")
	f.mDropped = r.Counter("net.dropped")
	f.mInflight = r.Gauge("net.inflight")
	f.mDepth = r.Histogram("net.channel.depth")
}

// Register adds a controller as a message endpoint. Registering two
// controllers with one ID is a wiring bug and panics.
func (f *Fabric) Register(c coherence.Controller) {
	if _, dup := f.nodes[c.ID()]; dup {
		panic(fmt.Sprintf("network: duplicate node %d (%s)", c.ID(), c.Name()))
	}
	f.nodes[c.ID()] = c
}

// Node returns the controller registered under id, or nil.
func (f *Fabric) Node(id coherence.NodeID) coherence.Controller { return f.nodes[id] }

// SetRoute overrides the channel configuration for src->dst.
func (f *Fabric) SetRoute(src, dst coherence.NodeID, cfg Config) {
	f.routes[chanKey{src, dst}] = cfg
}

// SetRoutePair overrides both directions between a and b.
func (f *Fabric) SetRoutePair(a, b coherence.NodeID, cfg Config) {
	f.SetRoute(a, b, cfg)
	f.SetRoute(b, a, cfg)
}

func (f *Fabric) channelFor(k chanKey) *channel {
	if ch, ok := f.chans[k]; ok {
		return ch
	}
	cfg, ok := f.routes[k]
	if !ok {
		cfg = f.defaults
	}
	ch := &channel{cfg: cfg}
	f.chans[k] = ch
	return ch
}

// SetInterceptor installs (or, with nil, removes) the fault-injection
// hook. Install before traffic starts; swapping interceptors mid-flight
// only affects messages not yet sent.
func (f *Fabric) SetInterceptor(i Interceptor) { f.interceptor = i }

// Send delivers a copy of *m to m.Dst after the channel's latency. m is
// only read during the call: the caller may reuse or discard it once
// Send returns (its Data block, shared by reference, must not be
// mutated). An installed Interceptor may replace the single delivery
// with any set of perturbed deliveries (or none); channel traffic stats
// always count the logical send once, while in-flight accounting and
// recv events track the actual deliveries.
func (f *Fabric) Send(m *coherence.Msg) {
	dst, ok := f.nodes[m.Dst]
	if !ok {
		f.Dropped++
		f.mDropped.Inc()
		if b := f.Bus; b.Active() {
			b.Emit(obs.MsgEvent(f.eng.Now(), obs.KindDrop, "net", m))
		}
		return
	}
	ch := f.channelFor(chanKey{m.Src, m.Dst})
	ch.account(m)
	f.mMsgs.Inc()
	f.mBytes.Add(uint64(m.Bytes()))

	if f.interceptor != nil && f.intercept(ch, dst, m) {
		return
	}
	f.deliver(ch, dst, &Delivery{Msg: m})
}

// intercept offers a scratch copy of m to the interceptor and schedules
// the deliveries it returns, reporting whether it handled m.
func (f *Fabric) intercept(ch *channel, dst coherence.Controller, m *coherence.Msg) bool {
	f.intercepted = *m
	dels, handled := f.interceptor.Intercept(f.eng.Now(), &f.intercepted)
	if handled {
		for i := range dels {
			f.deliver(ch, dst, &dels[i])
		}
	}
	f.intercepted = coherence.Msg{}
	return handled
}

// deliver schedules one arrival on ch; d carries the (possibly perturbed)
// message and its fault adjustments. The arrival rides a pooled delivRec
// holding a copy of the message instead of a closure, so the
// steady-state cost is heap push only.
func (f *Fabric) deliver(ch *channel, dst coherence.Controller, d *Delivery) {
	m := d.Msg
	ch.inflight++
	f.mInflight.Add(1)
	f.mDepth.Observe(float64(ch.inflight))

	delay := ch.cfg.Latency + d.ExtraDelay
	if ch.cfg.Jitter > 0 {
		delay += sim.Time(f.rng.Int63n(int64(ch.cfg.Jitter) + 1))
	}
	arrival := f.eng.Now() + delay
	if ch.cfg.Ordered && !d.Unordered {
		if arrival < ch.lastArrival {
			arrival = ch.lastArrival
		}
		ch.lastArrival = arrival
	}
	if b := f.Bus; b.Active() {
		b.Emit(obs.MsgEvent(f.eng.Now(), obs.KindSend, "net", m))
	}

	r := f.record()
	r.ch = ch
	r.dst = dst
	r.m = *m
	f.eng.ScheduleEventAt(arrival, &r.ev)
}

// record takes a record from the pool, allocating one only while the
// pool is still growing to the peak number of scheduled messages.
func (f *Fabric) record() *delivRec {
	r := f.freeRec
	if r != nil {
		f.freeRec = r.next
		r.next = nil
		return r
	}
	r = &delivRec{fab: f}
	r.ev.Fn = r.run // the pool's one allocation: bound method value
	return r
}

// After runs fn on a copy of *m after delay ticks: the allocation-free
// form of eng.Schedule(delay, func() { fn(m) }) for a controller's
// delayed message work, taking one engine sequence number at the call
// exactly as that closure would. m is only read during the call. fn
// borrows its argument like Controller.Recv does (valid until fn
// returns), and must be bound once — a method value stored at
// construction — since a method value built per call would allocate the
// closure this replaces.
func (f *Fabric) After(delay sim.Time, m *coherence.Msg, fn func(*coherence.Msg)) {
	r := f.record()
	r.fn = fn
	r.m = *m
	f.eng.ScheduleEvent(delay, &r.ev)
}

// SendAfter sends a copy of *m after delay ticks, as
// After(delay, m, f.Send): the message is fixed now and Send runs then,
// so traffic accounting, interception and the trace see the send at its
// send time.
func (f *Fabric) SendAfter(delay sim.Time, m *coherence.Msg) { f.After(delay, m, f.send) }

// StatsFor returns traffic counters for the directed channel src->dst
// (zero-valued if unused).
func (f *Fabric) StatsFor(src, dst coherence.NodeID) Stats {
	if ch, ok := f.chans[chanKey{src, dst}]; ok {
		return ch.snapshot()
	}
	return Stats{}
}

// VisitStats calls fn for every directed channel with traffic. The Stats
// pointee is a per-call snapshot the visitor may keep or mutate freely.
func (f *Fabric) VisitStats(fn func(src, dst coherence.NodeID, s *Stats)) {
	for k, ch := range f.chans {
		if ch.msgs > 0 {
			s := ch.snapshot()
			fn(k.src, k.dst, &s)
		}
	}
}

// TotalBytes sums traffic over all channels matching the filter (nil
// filter matches everything).
func (f *Fabric) TotalBytes(filter func(src, dst coherence.NodeID) bool) uint64 {
	var n uint64
	for k, ch := range f.chans {
		if ch.msgs > 0 && (filter == nil || filter(k.src, k.dst)) {
			n += ch.bytes
		}
	}
	return n
}
