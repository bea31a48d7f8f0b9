package faults

import (
	"math/rand"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/sim"
)

// Injector executes a Plan as a network.Interceptor. It only perturbs
// traffic on watched channel pairs (typically guard<->accelerator, both
// directions); everything else passes through untouched, so host-side
// protocol traffic is never faulted. All randomness comes from the plan's
// seeded PRNG with a fixed draw order per message, making the fault
// schedule a pure function of (plan, traffic).
type Injector struct {
	plan    Plan
	rng     *rand.Rand
	fab     *network.Fabric
	watched map[[2]coherence.NodeID]bool
	// dels is the deliveries buffer Intercept returns, reused for every
	// watched message: the fabric consumes it before its next Send.
	dels []network.Delivery

	// Injected counts every fault applied (sum over kinds).
	Injected uint64
	// Drops, Dups, Corrupts, Delays, Reorders break Injected down.
	Drops, Dups, Corrupts, Delays, Reorders uint64

	mInjected, mDrop, mDup, mCorrupt, mDelay, mReorder *obs.Counter
}

// NewInjector builds an injector for plan, emitting trace events through
// fab's bus. Install with fab.SetInterceptor and select traffic with
// Watch; an injector watching nothing perturbs nothing.
func NewInjector(plan Plan, fab *network.Fabric) *Injector {
	if plan.Delay > 0 && plan.MaxDelay <= 0 {
		plan.MaxDelay = DefaultMaxDelay
	}
	return &Injector{
		plan:    plan,
		rng:     rand.New(rand.NewSource(plan.Seed)),
		fab:     fab,
		watched: make(map[[2]coherence.NodeID]bool),
	}
}

// Plan returns the (normalized) plan the injector executes.
func (in *Injector) Plan() Plan { return in.plan }

// Watch subjects traffic between a and b — both directions — to the plan.
func (in *Injector) Watch(a, b coherence.NodeID) {
	in.watched[[2]coherence.NodeID{a, b}] = true
	in.watched[[2]coherence.NodeID{b, a}] = true
}

// AttachObs registers fault counters with r: fault.injected plus one
// fault.<kind> counter per fault kind. Nil-safe without it.
func (in *Injector) AttachObs(r *obs.Registry) {
	in.mInjected = r.Counter("fault.injected")
	in.mDrop = r.Counter("fault.drop")
	in.mDup = r.Counter("fault.dup")
	in.mCorrupt = r.Counter("fault.corrupt")
	in.mDelay = r.Counter("fault.delay")
	in.mReorder = r.Counter("fault.reorder")
}

// roll draws one Bernoulli trial. Zero-probability faults consume no PRNG
// state, so a plan's schedule depends only on the faults it enables.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return in.rng.Float64() < p
}

// note records one injected fault: per-kind and total counters plus a
// KindFault trace event naming the fault.
func (in *Injector) note(now sim.Time, kind string, c *obs.Counter, n *uint64, m *coherence.Msg) {
	*n++
	in.Injected++
	c.Inc()
	in.mInjected.Inc()
	if b := in.fab.Bus; b.Active() {
		e := obs.MsgEvent(now, obs.KindFault, "faults", m)
		e.Payload = kind
		b.Emit(e)
	}
}

// Intercept implements network.Interceptor. Draw order per watched
// message is fixed — drop, then dup, then per delivery corrupt, delay,
// reorder — so schedules replay exactly.
func (in *Injector) Intercept(now sim.Time, m *coherence.Msg) ([]network.Delivery, bool) {
	if !in.plan.Active() || !in.watched[[2]coherence.NodeID{m.Src, m.Dst}] {
		return nil, false
	}
	if in.roll(in.plan.Drop) {
		in.note(now, "drop", in.mDrop, &in.Drops, m)
		return nil, true
	}
	n := 1
	if in.roll(in.plan.Dup) {
		in.note(now, "dup", in.mDup, &in.Dups, m)
		n = 2
	}
	dels := in.dels[:0]
	for i := 0; i < n; i++ {
		d := network.Delivery{Msg: m}
		if in.roll(in.plan.Corrupt) && m.Data != nil {
			d.Msg = in.corrupt(m)
			in.note(now, "corrupt", in.mCorrupt, &in.Corrupts, d.Msg)
		}
		if in.roll(in.plan.Delay) {
			d.ExtraDelay = 1 + sim.Time(in.rng.Int63n(int64(in.plan.MaxDelay)))
			in.note(now, "delay", in.mDelay, &in.Delays, d.Msg)
		}
		if in.roll(in.plan.Reorder) {
			d.Unordered = true
			in.note(now, "reorder", in.mReorder, &in.Reorders, d.Msg)
		}
		dels = append(dels, d)
	}
	in.dels = dels
	return dels, true
}

// corrupt returns a copy of m with one random bit flipped in a copied
// data block. m is borrowed and its block is shared with the sender, so
// corruption never touches either (a duplicate of a corrupted message
// can deliver the clean payload).
func (in *Injector) corrupt(m *coherence.Msg) *coherence.Msg {
	cp := *m
	blk := *m.Data
	byteIdx := in.rng.Intn(mem.BlockBytes)
	bit := uint(in.rng.Intn(8))
	blk[byteIdx] ^= 1 << bit
	cp.Data = &blk
	return &cp
}
