package config

import (
	"strings"
	"testing"

	"crossingguard/internal/hostproto/hammer"
	"crossingguard/internal/hostproto/mesi"
	"crossingguard/internal/mem"
)

// With several bad lines, Audit reports the lowest-address one on every
// call: the error string must not depend on map iteration order, or a
// repro could not reproduce its own failure message.
func TestAuditReportsLowestBadLine(t *testing.T) {
	for _, h := range []HostKind{HostHammer, HostMESI} {
		s := Build(Spec{Host: h, Org: OrgXGFull1L, CPUs: 2, AccelCores: 1, Seed: 1})
		const base = mem.Addr(0x4000)
		for i := 0; i < 8; i++ {
			a := base + mem.Addr(i*mem.BlockBytes)
			s.CPUSeqs[0].Load(a, nil)
			s.CPUSeqs[1].Load(a, nil)
		}
		quiesce(t, s)
		// Both CPUs read every line, so each line has a shared copy;
		// corrupting the copies of two lines makes two data divergences.
		low, high := base+2*mem.BlockBytes, base+6*mem.BlockBytes
		corrupt := func(addr mem.Addr, data *mem.Block) {
			if addr == low || addr == high {
				data[0] ^= 0xee
			}
		}
		for _, c := range s.HCaches {
			c.VisitStable(func(addr mem.Addr, st hammer.CState, data *mem.Block, _ bool) {
				if st == hammer.CS {
					corrupt(addr, data)
				}
			})
		}
		for _, l1 := range s.ML1s {
			l1.VisitStable(func(addr mem.Addr, st mesi.L1State, data *mem.Block, _ bool) {
				if st == mesi.L1S {
					corrupt(addr, data)
				}
			})
		}
		for i := 0; i < 20; i++ {
			err := s.Audit()
			if err == nil || !strings.Contains(err.Error(), "at "+low.String()+":") {
				t.Fatalf("%s audit %d: %v, want the violation at %v", s.Spec.Name(), i, err, low)
			}
		}
	}
}
