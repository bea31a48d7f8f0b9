package core

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
)

func noopDone(*mem.Block, bool, bool) {}

// A Get arriving during an open recall parks on the line and costs no
// engine events while it waits: the count is the same whether the recall
// stays open for 100 ticks or 10000. While parked it counts as
// outstanding, so a request never woken reads as a hang.
func TestParkedGetCostsNoEventsWhileWaiting(t *testing.T) {
	cost := func(hold sim.Time) uint64 {
		r := newRecallRig(Transactional, Config{GuardLat: 1})
		r.g.startRecall(0x40, viewS, 0, noopDone)
		r.g.Recv(&coherence.Msg{Type: coherence.AGetS, Addr: 0x40, Src: 200, Dst: 40})
		r.eng.Schedule(hold, func() {}) // hold the recall open until here
		r.eng.RunUntil(hold)
		if n := r.g.Outstanding(); n != 2 {
			t.Fatalf("Outstanding = %d with a recall open and a Get parked, want 2", n)
		}
		r.g.Recv(&coherence.Msg{Type: coherence.AInvAck, Addr: 0x40, Src: 200, Dst: 40})
		r.eng.RunUntil(hold + 50)
		if len(r.shim.gets) != 1 {
			t.Fatalf("hold %d: %d host gets after the recall closed, want 1", hold, len(r.shim.gets))
		}
		if n := r.g.Outstanding(); n != 1 {
			t.Fatalf("Outstanding = %d after the woken Get opened its transaction, want 1", n)
		}
		return r.eng.Executed
	}
	if short, long := cost(100), cost(10000); short != long {
		t.Fatalf("engine events grow with the recall's duration: %d for 100 ticks, %d for 10000", short, long)
	}
}

// A Get parked behind a recall that is resolved by the guard's own
// quarantine must not open a host transaction for the fenced device when
// it wakes: it is nacked like a fresh request.
func TestParkedGetNackedAfterQuarantine(t *testing.T) {
	r := newRecallRig(FullState, Config{GuardLat: 1, QuarantineAfter: 1})
	r.g.startRecall(0x40, viewS, 0, noopDone)
	r.g.Recv(&coherence.Msg{Type: coherence.AGetS, Addr: 0x40, Src: 200, Dst: 40})
	r.eng.RunUntil(20)
	if len(r.shim.gets) != 0 {
		t.Fatal("Get reached the host shim during the recall")
	}
	// A Put for a block never granted is a Guarantee 1a violation; one
	// violation quarantines, which resolves the open recall.
	r.g.Recv(&coherence.Msg{Type: coherence.APutM, Addr: 0x2000, Src: 200, Dst: 40,
		Data: mem.Zero(), Dirty: true})
	r.eng.RunUntil(100)
	if !r.g.Quarantined {
		t.Fatal("guard not quarantined")
	}
	if len(r.shim.gets) != 0 {
		t.Fatalf("parked Get opened %d host transaction(s) for the fenced device", len(r.shim.gets))
	}
	nacks := 0
	for _, m := range r.accel.got {
		if m.Type == coherence.ANack && m.Addr == 0x40 {
			nacks++
		}
	}
	if nacks != 1 {
		t.Fatalf("parked Get got %d ANack(s), want 1", nacks)
	}
	if n := r.g.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after the nack, want 0", n)
	}
}

// A rate-delayed request from before a device reset that resumes after
// reintegration is a stale straggler: dropped, never forwarded under
// the new epoch.
func TestDelayedRequestStaleAfterReintegration(t *testing.T) {
	r := newRecallRig(FullState, Config{GuardLat: 1, QuarantineAfter: 1, RecoverAfter: 10,
		Rate: NewRateLimit(1, 1000)})
	r.g.Recv(&coherence.Msg{Type: coherence.AGetS, Addr: 0x40, Src: 200, Dst: 40})
	r.g.Recv(&coherence.Msg{Type: coherence.AGetS, Addr: 0x80, Src: 200, Dst: 40}) // waits out the limiter
	r.eng.RunUntil(10)
	r.g.granted(0x40, GrantS, mem.Zero(), false)
	// A response with no pending recall (Guarantee 2b) quarantines; the
	// recovery machine then resets the device under epoch 1.
	r.g.Recv(&coherence.Msg{Type: coherence.AInvAck, Addr: 0x100, Src: 200, Dst: 40})
	r.eng.RunUntil(500)
	if r.g.Epoch() != 1 || r.g.Quarantined {
		t.Fatalf("epoch %d quarantined %v before the delayed Get resumes, want a reintegrated guard", r.g.Epoch(), r.g.Quarantined)
	}
	r.eng.RunUntil(5000)
	for _, g := range r.shim.gets {
		if g.addr == 0x80 {
			t.Fatal("pre-reset Get reached the host shim after reintegration")
		}
	}
	if r.g.ReqsBlocked == 0 {
		t.Fatal("stale Get not counted as blocked")
	}
}
