package config

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/hostproto/hammer"
	"crossingguard/internal/hostproto/mesi"
	"crossingguard/internal/mem"
)

// AuditHostOnly checks the invariants the paper guarantees even against a
// pathological accelerator (§2.2): the host caches keep their structural
// coherence (SWMR among CPU caches, no stuck transients), and the host's
// ownership bookkeeping is sane wherever the guard is not involved. Data
// values are deliberately NOT checked — the paper accepts that a buggy
// accelerator corrupts the data of pages it may write ("the host system
// eventually converges on a single value"), and guard-substituted zero
// blocks are expected.
func (s *System) AuditHostOnly() error {
	guardIDs := make(map[coherence.NodeID]bool)
	for _, g := range s.Guards {
		guardIDs[g.ID()] = true
	}
	type claim struct {
		name string
		id   coherence.NodeID
		excl bool
	}
	lines := make(map[mem.Addr][]claim)
	shared := make(map[mem.Addr]int)
	for _, c := range s.HCaches {
		c := c
		if c.WBPending() != 0 {
			return fmt.Errorf("%s: writebacks pending at quiesce", c.Name())
		}
		c.VisitStable(func(addr mem.Addr, st hammer.CState, _ *mem.Block, _ bool) {
			switch {
			case st == hammer.CO:
				// MOESI O legitimately coexists with sharers.
				lines[addr] = append(lines[addr], claim{c.Name(), c.ID(), false})
			case hammerLevel(st) >= 1:
				lines[addr] = append(lines[addr], claim{c.Name(), c.ID(), true})
			default:
				shared[addr]++
			}
		})
	}
	for _, l1 := range s.ML1s {
		l1 := l1
		if l1.WBPending() != 0 {
			return fmt.Errorf("%s: writebacks pending at quiesce", l1.Name())
		}
		l1.VisitStable(func(addr mem.Addr, st mesi.L1State, _ *mem.Block, _ bool) {
			if mesiLevel(st) >= 1 {
				lines[addr] = append(lines[addr], claim{l1.Name(), l1.ID(), true})
			} else {
				shared[addr]++
			}
		})
	}
	for _, addr := range mem.AppendSorted(nil, lines) {
		cs := lines[addr]
		excl := 0
		for _, c := range cs {
			if c.excl {
				excl++
			}
		}
		if excl > 1 {
			return fmt.Errorf("host SWMR violated at %v: %d exclusive CPU holders", addr, excl)
		}
		if excl == 1 && (shared[addr] > 0 || len(cs) > 1) {
			return fmt.Errorf("host SWMR violated at %v: exclusive CPU holder beside sharers", addr)
		}
	}
	// Host ownership must point at a real CPU owner or at the guard
	// (whose internal state we do not trust after fuzzing).
	check := func(addr mem.Addr, rec coherence.NodeID) error {
		if rec == coherence.NodeNone || guardIDs[rec] {
			return nil
		}
		for _, c := range lines[addr] {
			if c.id == rec {
				return nil
			}
		}
		// A CPU sequencer id or unknown node as owner would be corrupt.
		for _, c := range s.HCaches {
			if c.ID() == rec {
				return fmt.Errorf("%v: host records CPU owner %d holding nothing", addr, rec)
			}
		}
		for _, l1 := range s.ML1s {
			if l1.ID() == rec {
				return fmt.Errorf("%v: host records CPU owner %d holding nothing", addr, rec)
			}
		}
		return fmt.Errorf("%v: host records unknown owner %d", addr, rec)
	}
	var err error
	if s.HDir != nil {
		s.HDir.VisitOwned(func(addr mem.Addr, owner coherence.NodeID) {
			if err == nil {
				err = check(addr, owner)
			}
		})
	} else {
		s.ML2.VisitStable(func(addr mem.Addr, owner coherence.NodeID, _ []coherence.NodeID, _ *mem.Block, _ bool) {
			if err == nil && owner != coherence.NodeNone {
				err = check(addr, owner)
			}
		})
	}
	return err
}

// HostOutstanding reports open transactions in the host protocol and CPU
// sequencers only (the accelerator side may legitimately be wedged when
// it is a fuzzer).
func (s *System) HostOutstanding() int {
	n := 0
	for _, sq := range s.CPUSeqs {
		n += sq.Outstanding()
	}
	if s.HDir != nil {
		n += s.HDir.Outstanding()
	}
	for _, c := range s.HCaches {
		n += c.Outstanding()
	}
	if s.ML2 != nil {
		n += s.ML2.Outstanding()
	}
	for _, l1 := range s.ML1s {
		n += l1.Outstanding()
	}
	return n
}
