package mesi

import (
	"testing"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/coherence"
	"crossingguard/internal/obs"
)

// TestCoverageRecordAllocFree: the L2 and the L1 record through their
// own state indices, the L2's busy composite state included, without
// allocating, and count by originating state.
func TestCoverageRecordAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	l2 := &L2{Cov: NewL2Coverage()}
	l1 := &L1{Cov: NewL1Coverage()}
	for _, cov := range []*coherence.Coverage{l2.Cov, l1.Cov} {
		prefix := cov.Name() + ".state."
		cov.CountStates(func(s string) coherence.Counter { return reg.Counter(prefix + s) })
	}
	busy := &cacheset.Entry[l2Line]{V: l2Line{state: L2MT, txn: &l2Txn{}}}
	record := func() {
		l2.Cov.RecordMsg(l2.covState(busy), coherence.MUnblock)
		l1.Cov.RecordMsg(int(L1IMad), coherence.MDataAcks)
		l1.Cov.Record(int(L1M), coherence.EvReplacement)
	}
	record() // first visits resolve the per-state counters
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Fatalf("recording allocated %v objects/run, want 0", allocs)
	}
	for name, cov := range map[string]*coherence.Coverage{
		"mesi.L2.state.MT+busy": l2.Cov, "mesi.L1.state.IM_AD": l1.Cov, "mesi.L1.state.M": l1.Cov,
	} {
		if got := reg.Counter(name).Value(); got != 102 {
			t.Errorf("%s = %d, want 102", name, got)
		}
		if len(cov.Unexpected) != 0 {
			t.Errorf("%s: unexpected %v", cov.Name(), cov.Unexpected)
		}
	}
}
