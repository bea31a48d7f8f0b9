package config

import (
	"reflect"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/tester"
)

// TestStateCountersMatchCoverage checks that the two views of host
// transition counting agree after a stress shard: for every host
// controller class, the "<class>.state.<S>" counter equals the class's
// coverage visits in state S summed over instances and events, and the
// class's Visits equals the sum of its state counters.
func TestStateCountersMatchCoverage(t *testing.T) {
	for _, host := range []HostKind{HostHammer, HostMESI} {
		s := Build(Spec{Host: host, Org: OrgHostSide, CPUs: 2, AccelCores: 2, Seed: 7, Small: true})
		cfg := tester.DefaultConfig(11)
		cfg.StoresPerLoc = 25
		cfg.Deadline = 100_000_000
		if _, err := tester.Run(s, cfg); err != nil {
			t.Fatalf("%s: %v", s.Spec.Name(), err)
		}
		classes := map[string][]*coherence.Coverage{}
		if host == HostHammer {
			classes["hammer.dir"] = append(classes["hammer.dir"], s.HDir.Cov)
			for _, c := range append(s.HCaches, s.AccelHCaches...) {
				classes["hammer.cache"] = append(classes["hammer.cache"], c.Cov)
			}
		} else {
			classes["mesi.L2"] = append(classes["mesi.L2"], s.ML2.Cov)
			for _, c := range append(s.ML1s, s.AccelMCaches...) {
				classes["mesi.L1"] = append(classes["mesi.L1"], c.Cov)
			}
		}
		counters := s.Obs.Snapshot().Counters
		for class, covs := range classes {
			fromCov := map[string]uint64{}
			var visits uint64
			for _, cov := range covs {
				visits += cov.Visits()
				for pair, n := range cov.Snapshot() {
					state, _, _ := strings.Cut(pair, "/")
					fromCov[state] += n
				}
			}
			fromObs := map[string]uint64{}
			var counted uint64
			for name, n := range counters {
				if state, ok := strings.CutPrefix(name, class+".state."); ok {
					fromObs[state] = n
					counted += n
				}
			}
			if len(fromCov) == 0 {
				t.Fatalf("%s %s: no transitions recorded", s.Spec.Name(), class)
			}
			if !reflect.DeepEqual(fromObs, fromCov) {
				t.Errorf("%s %s: state counters %v, coverage by state %v", s.Spec.Name(), class, fromObs, fromCov)
			}
			if visits != counted {
				t.Errorf("%s %s: Visits = %d, state counters sum to %d", s.Spec.Name(), class, visits, counted)
			}
		}
	}
}
