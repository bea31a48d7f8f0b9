package campaign

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"crossingguard/internal/config"
)

// doubleRunTail is the trace-ring capacity of the double-run test:
// large enough that every cell's whole event stream fits, which the test
// asserts, so the fingerprint covers the full trace rather than a tail.
const doubleRunTail = 1 << 16

// firstSpec returns the first spec of a sweep that ok accepts.
func firstSpec(t *testing.T, specs []ShardSpec, ok func(ShardSpec) bool) ShardSpec {
	t.Helper()
	for _, s := range specs {
		if ok(s) {
			return s
		}
	}
	t.Fatal("sweep has no shard of the wanted shape")
	return ShardSpec{}
}

// TestDoubleRunTraceIdentical runs one shard of each sweep kind twice in
// the same process with a trace sink attached and requires the two runs
// to agree on their full trace, their metrics and their result. Go
// randomizes map iteration per run, so a controller that keeps a
// message it only borrowed, or any other dependence on map order, shows
// up here as a trace that differs between two runs of one spec — even
// where the report totals happen to agree.
func TestDoubleRunTraceIdentical(t *testing.T) {
	cells := []struct {
		kind string
		spec ShardSpec
	}{
		{"stress", firstSpec(t, StressSweep(1, 2, 2, 12), func(s ShardSpec) bool {
			return s.Host == config.HostMESI && s.Org == config.OrgXGFull2L
		})},
		{"fuzz", firstSpec(t, FuzzSweep(1, 2, 300), func(s ShardSpec) bool {
			return s.Host == config.HostHammer && s.Org == config.OrgXGTxn2L && !s.Confined
		})},
		{"chaos", firstSpec(t, ChaosSweep(1, 2, 200), func(s ShardSpec) bool {
			return s.Host == config.HostMESI && s.Faults.Dup > 0 && s.Faults.Delay > 0
		})},
		{"recovery", firstSpec(t, RecoverySweep(1, 2, 200), func(s ShardSpec) bool {
			return s.Host == config.HostHammer
		})},
		{"multi", firstSpec(t, MultiAccelSweep(1, 2, 8, 200), func(s ShardSpec) bool {
			return s.Kind == KindStress && s.Host == config.HostMESI && s.Accels == 4
		})},
	}
	for _, c := range cells {
		t.Run(c.kind, func(t *testing.T) {
			var first string
			for run := 1; run <= 2; run++ {
				rep := Run([]ShardSpec{c.spec}, Options{Workers: 1, Trace: true, TraceTail: doubleRunTail})
				sh := &rep.Shards[0]
				if n := len(sh.Events); n == 0 || n >= doubleRunTail {
					t.Fatalf("run %d kept %d trace events; the whole stream must fit in %d", run, n, doubleRunTail)
				}
				var tr, met bytes.Buffer
				if err := rep.WriteTrace(&tr); err != nil {
					t.Fatal(err)
				}
				if err := rep.WriteMetrics(&met); err != nil {
					t.Fatal(err)
				}
				fp := fmt.Sprintf("%d events, trace %x, metrics %x, result %+v sent=%d injected=%d violations=%d recoveries=%d err=%v",
					len(sh.Events), sha256.Sum256(tr.Bytes()), sha256.Sum256(met.Bytes()),
					sh.Res, sh.Sent, sh.Injected, sh.Violations, sh.Recoveries, sh.Err)
				if run == 1 {
					first = fp
				} else if fp != first {
					t.Fatalf("%s: second run differs from the first\nfirst:  %s\nsecond: %s", c.spec.Name(), first, fp)
				}
			}
		})
	}
}
