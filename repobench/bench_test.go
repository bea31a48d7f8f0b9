package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// TestWorkloadsReduced runs every workload at reduced size, untraced
// and traced, twice each: every named metric must be emitted and
// finite, and the simulated metrics must repeat exactly.
func TestWorkloadsReduced(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				opt := options{workload: wl, seed: defaultSeed, trace: trace, size: reducedSize}
				a := mustRun(t, opt)
				b := mustRun(t, opt)
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(a.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, want %d", trace, len(a.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := a.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: metric %s = %+v (present %v), want a finite value in %s", trace, d.name, m, ok, d.unit)
					}
				}
				for _, name := range simulatedMetrics {
					if m, ok := a.Metrics[name]; ok && m != b.Metrics[name] {
						t.Errorf("trace=%v: simulated metric %s is %v then %v", trace, name, m.Value, b.Metrics[name].Value)
					}
				}
				if !trace {
					for _, name := range []string{"events_per_memop", "crossing_ticks_p50", "sim_ticks_per_memop"} {
						if a.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, a.Metrics[name].Value)
						}
					}
					continue
				}
				var share float64
				for _, bucket := range cpuBuckets {
					share += a.Metrics["cpu_share."+bucket].Value
				}
				if share != 0 && math.Abs(share-1) > 1e-9 {
					t.Errorf("cpu shares sum to %v, want 1 (or 0 without samples)", share)
				}
			}
		})
	}
}

func mustRun(t *testing.T, opt options) *result {
	t.Helper()
	res, err := run(opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSeedChangesInputs checks the workload seed reaches the generated
// shard list: the held-out seed yields other shard seeds.
func TestSeedChangesInputs(t *testing.T) {
	for _, wl := range workloadNames {
		a, err := shards(wl, defaultSeed, fullSize)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := shards(wl, heldOutSeed, fullSize)
		if len(a) < 100 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d shards, want the same count of at least 100", wl, len(a), len(b))
		}
		if a[0].seed == b[0].seed {
			t.Errorf("%s: seeds %d and %d give the same first shard seed", wl, defaultSeed, heldOutSeed)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "crossingguard/internal/core.(*Guard).Recv"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.memmove", "crossingguard/internal/mem.(*Memory).Write", "crossingguard/internal/hostproto/mesi.(*L2).Recv"}, "hostproto"},
		{[]string{"crossingguard/internal/hostproto/hammer.(*Cache).Recv"}, "hostproto"},
		{[]string{"sort.Slice", "crossingguard/internal/cacheset.(*Set).Find", "crossingguard/internal/accel.(*L1Cache).Recv"}, "accel"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "crossingguard/internal/tester.(*runner).startStore.func1"}, "seq"},
		{[]string{"crossingguard/internal/faults.(*Injector).Intercept"}, "network"},
		{[]string{"slices.SortFunc[go.shape.[]crossingguard/internal/x.T]", "crossingguard/internal/consistency.Check"}, "consistency"},
		{[]string{"crossingguard/internal/campaign.RunShard", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json equal to the tables the
// benchmark reports from.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] ||
			(d.better != "higher" && d.better != "lower") || d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %+v breaks the benchmark description's limits", d)
		}
		seen[d.name] = true
	}
	for _, n := range workloadNames {
		if why := workloadWhy[n]; len(why) == 0 || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why %q must be one line of at most 200 characters", n, why)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("../BENCHMARK.json differs from the metric tables; run go test -run TestBenchmarkJSON -update\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// benchmarkJSON renders the benchmark description from the tables.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "repobench/run.sh"}, Paths: []string{"repobench"}, RunSeconds: 10}
	for _, n := range workloadNames {
		doc.Workloads = append(doc.Workloads, wl{n, workloadWhy[n]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

// TestDocs keeps README.md's metric tables equal to the metric tables.
func TestDocs(t *testing.T) {
	const begin, end = "<!-- metrics:begin -->\n", "<!-- metrics:end -->"
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	i, j := bytes.Index(readme, []byte(begin)), bytes.Index(readme, []byte(end))
	if i < 0 || j < i {
		t.Fatal("README.md lacks the metrics markers")
	}
	var b strings.Builder
	b.WriteString("| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n")
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %g |\n", d.name, d.unit, d.better, d.bound)
	}
	b.WriteString("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n")
	for _, d := range perLayer {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", d.name, d.unit, d.better, d.moves)
	}
	want := append(append(append([]byte{}, readme[:i+len(begin)]...), b.String()...), readme[j:]...)
	if *update {
		if err := os.WriteFile("README.md", want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(readme, want) {
		t.Error("README.md's metric tables differ from metrics.go; run go test -run TestDocs -update")
	}
}
