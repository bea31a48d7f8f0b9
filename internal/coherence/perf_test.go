package coherence

import (
	"reflect"
	"testing"
)

// tally is a per-state Counter for tests.
type tally uint64

func (t *tally) Inc() { *t++ }

// TestRecordAllocFree pins transition counting at zero allocations: on
// a declared pair, with per-state counters attached, Record and
// RecordMsg are an array increment and a counter bump.
func TestRecordAllocFree(t *testing.T) {
	tab := NewTable("L2", "NP", "SS", "SS+busy")
	tab.DeclareAll([]string{"NP", "SS", "SS+busy"}, []string{"M:GetS", "M:Unblock"})
	tab.Declare("SS", "Load")
	c := tab.New()
	var n tally
	c.CountStates(func(string) Counter { return &n })
	record := func() {
		c.Record(1, EvLoad)
		c.RecordMsg(2, MUnblock)
	}
	record() // first visits resolve the per-state counters
	if allocs := testing.AllocsPerRun(200, record); allocs != 0 {
		t.Fatalf("Record allocated %v objects/run, want 0", allocs)
	}
	if uint64(n) != c.Visits() || len(c.Unexpected) != 0 {
		t.Fatalf("counter=%d visits=%d unexpected=%v", n, c.Visits(), c.Unexpected)
	}
}

// TestCoverageCountStates: every Record bumps the counter of its
// originating state, including a state outside the class table; a
// state never visited gets no counter.
func TestCoverageCountStates(t *testing.T) {
	tab := NewTable("hammer.cache", "I", "S", "M")
	tab.Declare("M", "H:FwdGetS")
	tab.Declare("M", "H:FwdGetM")
	tab.Declare("I", "Load")
	c := tab.New()
	counts := map[string]*tally{}
	c.CountStates(func(state string) Counter {
		counts[state] = new(tally)
		return counts[state]
	})
	c.RecordMsg(2, HFwdGetS)
	c.RecordMsg(2, HFwdGetM)
	c.Record(0, EvLoad)
	c.RecordName("?", "H:Nack")
	got := map[string]uint64{}
	for s, n := range counts {
		got[s] = uint64(*n)
	}
	if want := map[string]uint64{"M": 2, "I": 1, "?": 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("per-state counts = %v, want %v", got, want)
	}
	if len(c.Unexpected) != 1 || c.Unexpected[0] != "?/H:Nack" {
		t.Fatalf("Unexpected = %v", c.Unexpected)
	}
}

// TestRecordMsgOutsideTable: a message type the class has no event for
// is recorded by name in a private copy of the table, which neither
// changes the shared table nor loses the visit on Merge.
func TestRecordMsgOutsideTable(t *testing.T) {
	tab := NewTable("accel.L1", "I", "B")
	tab.Declare("B", "A:DataS")
	a, b := tab.New(), tab.New()
	a.RecordMsg(1, ADataS)
	b.RecordMsg(1, ADataS)
	b.RecordMsg(1, MsgType(99))
	if len(b.Unexpected) != 1 || b.Unexpected[0] != "B/MsgType(99)" {
		t.Fatalf("Unexpected = %v", b.Unexpected)
	}
	if a.tab != tab || b.tab == tab || len(tab.events) != 4 {
		t.Fatal("a pair outside the table must grow only a private copy")
	}
	sum := tab.New()
	sum.Merge(a)
	sum.Merge(b)
	want := map[string]uint64{"B/A:DataS": 2, "B/MsgType(99)": 1}
	if got := sum.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged Snapshot = %v, want %v", got, want)
	}
	if sum.Possible() != 1 || len(sum.Unexpected) != 1 {
		t.Fatalf("merged Possible=%d Unexpected=%v", sum.Possible(), sum.Unexpected)
	}
}
