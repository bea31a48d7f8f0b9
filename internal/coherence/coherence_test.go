package coherence

import (
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"crossingguard/internal/mem"
)

func TestMsgTypeStrings(t *testing.T) {
	// Every declared type must have a unique, non-placeholder name;
	// missing entries in msgTypeNames would hide bugs in traces.
	seen := make(map[string]MsgType)
	for ty := MsgType(1); ty < numMsgTypes; ty++ {
		s := ty.String()
		if strings.HasPrefix(s, "MsgType(") || s == "" {
			t.Errorf("type %d has no name", int(ty))
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("name %q reused by %d and %d", s, prev, ty)
		}
		seen[s] = ty
	}
	if got := MsgType(9999).String(); got != "MsgType(9999)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestAccelInterfaceArity(t *testing.T) {
	// The paper defines exactly 5 accelerator requests and 3 accelerator
	// responses; guard this so the interface cannot silently grow.
	var reqs, resps []MsgType
	for ty := MsgType(1); ty < numMsgTypes; ty++ {
		if ty.IsAccelRequest() {
			reqs = append(reqs, ty)
		}
		if ty.IsAccelResponse() {
			resps = append(resps, ty)
		}
	}
	if len(reqs) != 5 {
		t.Errorf("accel requests = %v, want 5", reqs)
	}
	if len(resps) != 3 {
		t.Errorf("accel responses = %v, want 3", resps)
	}
}

func TestMsgBytes(t *testing.T) {
	m := &Msg{Type: AGetS, Addr: 0x40}
	if m.Bytes() != ControlBytes {
		t.Errorf("control msg bytes = %d", m.Bytes())
	}
	m.Data = mem.Zero()
	if m.Bytes() != ControlBytes+DataBytes {
		t.Errorf("data msg bytes = %d", m.Bytes())
	}
}

func TestCarriesDataConsistency(t *testing.T) {
	// Data-bearing accelerator-interface messages per the paper:
	// PutM/PutE carry data; DataS/DataE/DataM carry data; Clean/Dirty WB
	// carry data; GetS/GetM/PutS/WBAck/Inv/InvAck do not.
	wantData := map[MsgType]bool{
		AGetS: false, AGetM: false, APutM: true, APutE: true, APutS: false,
		ADataS: true, ADataE: true, ADataM: true, AWBAck: false,
		AInv: false, AInvAck: false, ACleanWB: true, ADirtyWB: true,
	}
	for ty, want := range wantData {
		if got := ty.CarriesData(); got != want {
			t.Errorf("%v.CarriesData() = %v, want %v", ty, got, want)
		}
	}
}

func TestMsgString(t *testing.T) {
	m := &Msg{Type: HData, Addr: 0x1240, Src: 3, Dst: 1, Requestor: 1,
		Data: mem.Zero(), Dirty: true, Acks: 2, Shared: true}
	s := m.String()
	for _, frag := range []string{"H:Data", "0x1240", "3->1", "+data(dirty)", "acks=2", "shared"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestCoverageDeclareRecord(t *testing.T) {
	tab := NewTable("L1", "I", "S")
	tab.DeclareAll([]string{"I", "S"}, []string{"Load", "Inv"})
	c := tab.New()
	if c.Possible() != 4 {
		t.Fatalf("Possible = %d", c.Possible())
	}
	c.RecordName("I", "Load")
	c.RecordName("I", "Load")
	c.RecordName("S", "Inv")
	if c.Visited() != 2 || c.Visits() != 3 {
		t.Fatalf("Visited=%d Visits=%d", c.Visited(), c.Visits())
	}
	missing := c.Missing()
	if len(missing) != 2 {
		t.Fatalf("Missing = %v", missing)
	}
	if len(c.Unexpected) != 0 {
		t.Fatalf("Unexpected = %v", c.Unexpected)
	}
	c.RecordName("M", "Load") // undeclared
	if len(c.Unexpected) != 1 || c.Unexpected[0] != "M/Load" {
		t.Fatalf("Unexpected = %v", c.Unexpected)
	}
}

func TestCoverageMerge(t *testing.T) {
	a := NewCoverage("L1")
	a.Declare("I", "Load")
	a.RecordName("I", "Load")
	b := NewCoverage("L1")
	b.RecordName("I", "Load")
	b.RecordName("S", "Inv")
	a.Merge(b)
	if a.Visits() != 3 || a.Visited() != 2 {
		t.Fatalf("after merge: Visits=%d Visited=%d", a.Visits(), a.Visited())
	}
}

func TestCoverageSummaryNoDeclared(t *testing.T) {
	c := NewCoverage("x")
	c.RecordName("I", "Load")
	if !strings.Contains(c.Summary(), "1 pairs visited") {
		t.Errorf("Summary = %q", c.Summary())
	}
}

// TestMsgSize pins the packed message layout on 64-bit platforms: every
// send copies a message into the fabric's record and every delivery
// zeroes it, so a field added or reordered without regard to alignment
// grows the cost of every message.
func TestMsgSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Msg{}); got != 80 {
		t.Fatalf("sizeof(Msg) = %d bytes, want 80", got)
	}
}
