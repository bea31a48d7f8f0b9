package hammer

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/obs"
)

// TestCoverageRecordAllocFree: the directory and the cache record
// through their own state indices, the directory's busy composite state
// included, without allocating, and count by originating state.
func TestCoverageRecordAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	d := &Directory{Cov: NewDirectoryCoverage()}
	c := &Cache{Cov: NewCacheCoverage()}
	for _, cov := range []*coherence.Coverage{d.Cov, c.Cov} {
		prefix := cov.Name() + ".state."
		cov.CountStates(func(s string) coherence.Counter { return reg.Counter(prefix + s) })
	}
	busy := &dirLine{owner: 3, txn: &dirTxn{}}
	record := func() {
		d.Cov.RecordMsg(d.covState(busy), coherence.HUnblock)
		c.Cov.RecordMsg(int(CM), coherence.HFwdGetS)
		c.Cov.Record(int(CS), coherence.EvReplacement)
	}
	record() // first visits resolve the per-state counters
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Fatalf("recording allocated %v objects/run, want 0", allocs)
	}
	for name, cov := range map[string]*coherence.Coverage{
		"hammer.dir.state.Owned+busy": d.Cov, "hammer.cache.state.M": c.Cov, "hammer.cache.state.S": c.Cov,
	} {
		if got := reg.Counter(name).Value(); got != 102 {
			t.Errorf("%s = %d, want 102", name, got)
		}
		if len(cov.Unexpected) != 0 {
			t.Errorf("%s: unexpected %v", cov.Name(), cov.Unexpected)
		}
	}
}
