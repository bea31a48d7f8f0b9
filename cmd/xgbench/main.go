// Command xgbench runs the simulator's kernel microbenchmarks (E14) and
// writes a machine-readable perf-trajectory file.
//
// It measures, in one binary on one machine:
//
//   - engine_schedule / engine_schedule_ref: per-event cost of the
//     monomorphic 4-ary heap kernel vs the frozen pre-PR4
//     container/heap kernel (internal/sim/simref).
//   - engine_schedule_steady: one Schedule+drain on a warmed engine —
//     the steady-state path whose allocs/op the CI gate pins at 0.
//   - fabric_send: the closure-free network delivery path, including its
//     allocs/op (the CI gate: must be 0).
//   - stress_hot_path / stress_hot_path_ref: the end-to-end
//     engine+fabric message churn on both kernels, plus the improvement
//     percentage (ISSUE 4 acceptance bar: >= 25%).
//   - e3_stress / e5_runtime: whole-simulator shards (paper §4.1 tester,
//     E5 blocked workload) reported as sim-ticks/sec — the number that
//     bounds how many campaign shards fit a time budget.
//   - e3_stress_recorded: the same E3 shard with the offline-checker
//     observation recorder attached to every sequencer, plus
//     recording_overhead_pct vs the plain shard (ISSUE 6 acceptance
//     bar: <= 15%).
//
// Usage:
//
//	xgbench [-out BENCH_PR7.json] [-baseline BENCH_PR6.json] [-check]
//
// With -check, xgbench exits nonzero if any budget is blown:
// fabric_send or engine_schedule_steady allocates on the steady-state
// path (allocs/op > 0, i.e. recording disabled must cost nothing),
// recording_overhead_pct exceeds 15, or — when the -baseline file
// exists — the single-accelerator hot-path ns/op (stress_hot_path,
// e3_stress) regressed more than 5% against it, proving the
// multi-accelerator sharding left the one-device machine alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/network"
	"crossingguard/internal/perfbench"
	"crossingguard/internal/sim"
)

// bench is one measured workload in the JSON report.
type bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SimTicksPerSec is simulated-ticks advanced per wall-clock second,
	// 0 for microbenchmarks that do not model time.
	SimTicksPerSec float64 `json:"sim_ticks_per_sec,omitempty"`
}

// report is the BENCH_PR7.json schema (xgbench/4: drops xgbench/3's
// two-accelerator stress shard, which simulated the same event stream as
// e3_stress; xgbench/2 added the steady-state engine gate and the
// observation-recording overhead pair). Field order is
// fixed by the struct; runs on the same machine diff cleanly except for
// measured values, and every xgbench/2 field keeps its name so the
// -baseline comparison reads old files directly.
type report struct {
	Schema               string `json:"schema"`
	EngineSchedule       bench  `json:"engine_schedule"`
	EngineScheduleRef    bench  `json:"engine_schedule_ref"`
	EngineScheduleSteady bench  `json:"engine_schedule_steady"`
	FabricSend           bench  `json:"fabric_send"`
	StressHotPath        bench  `json:"stress_hot_path"`
	StressHotPathRef     bench  `json:"stress_hot_path_ref"`
	// StressImprovementPct is 100*(ref-new)/ref for stress_hot_path
	// ns/op — the headline number of the PR4 perf trajectory.
	StressImprovementPct float64 `json:"stress_improvement_pct"`
	E3Stress             bench   `json:"e3_stress"`
	E3StressRecorded     bench   `json:"e3_stress_recorded"`
	// RecordingOverheadPct is 100*(recorded-plain)/plain for e3_stress
	// ns/op — what attaching the offline checker's observation streams
	// costs the full simulator (ISSUE 6 budget: <= 15%).
	RecordingOverheadPct float64 `json:"recording_overhead_pct"`
	E5Runtime            bench   `json:"e5_runtime"`
}

// measure converts a testing.BenchmarkResult, attaching ticks/sec when
// the workload advanced simTicksPerOp of simulated time per op.
func measure(r testing.BenchmarkResult, simTicksPerOp float64) bench {
	b := bench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if simTicksPerOp > 0 && b.NsPerOp > 0 {
		b.SimTicksPerSec = simTicksPerOp * 1e9 / b.NsPerOp
	}
	return b
}

// nopCtrl is the do-nothing endpoint for the fabric microbenchmark.
type nopCtrl struct{ id coherence.NodeID }

func (n *nopCtrl) ID() coherence.NodeID { return n.id }
func (n *nopCtrl) Name() string         { return "nop" }
func (n *nopCtrl) Recv(*coherence.Msg)  {}

// benchEngineScheduleSteady measures one Schedule+drain on a warmed
// engine: the heap has already grown to capacity and the callback
// captures nothing, so this is the pure steady-state scheduling path.
// Its allocs/op is the second -check gate (budget 0): with recording
// disabled, the event kernel must not allocate.
func benchEngineScheduleSteady(b *testing.B) {
	eng := sim.NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.Schedule(sim.Time(i%7), fn)
	}
	eng.RunUntilQuiet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(1, fn)
		eng.RunUntilQuiet()
	}
}

// benchFabricSend mirrors internal/network's BenchmarkFabricSend: one
// steady-state Send plus its delivery per op, each op sending a fresh
// message literal as every controller does, so the 0 allocs/op gate
// pins by-value sends rather than the reuse of one message.
func benchFabricSend(b *testing.B) {
	eng := sim.NewEngine()
	f := network.NewFabric(eng, 1, network.Config{Latency: 2, Ordered: true})
	f.Register(&nopCtrl{id: 1})
	f.Register(&nopCtrl{id: 2})
	f.Send(&coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2})
	eng.RunUntilQuiet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(&coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2, Tag: uint64(i)})
		eng.RunUntilQuiet()
	}
}

const (
	hotPairs     = 16
	hotHops      = 50_000
	schedEvents  = 10_000
	shardSeed    = 3
	workloadSeed = 7
)

func main() {
	out := flag.String("out", "BENCH_PR7.json", "output file for the machine-readable results")
	baseline := flag.String("baseline", "BENCH_PR6.json", "previous-PR results to gate single-accelerator ns/op against with -check (skipped if the file does not exist)")
	check := flag.Bool("check", false, "exit nonzero if any budget is blown: steady-state allocs/op > 0 (fabric_send, engine_schedule_steady), recording overhead > 15%, or single-accelerator ns/op > 5% over -baseline (CI gate)")
	flag.Parse()

	rep := report{Schema: "xgbench/4"}

	fmt.Fprintln(os.Stderr, "xgbench: engine schedule/drain (new kernel)...")
	rep.EngineSchedule = measure(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			perfbench.ScheduleDrain(schedEvents)
		}
	}), 0)
	fmt.Fprintln(os.Stderr, "xgbench: engine schedule/drain (pre-PR4 reference kernel)...")
	rep.EngineScheduleRef = measure(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			perfbench.RefScheduleDrain(schedEvents)
		}
	}), 0)

	fmt.Fprintln(os.Stderr, "xgbench: engine schedule steady state...")
	rep.EngineScheduleSteady = measure(testing.Benchmark(benchEngineScheduleSteady), 0)

	fmt.Fprintln(os.Stderr, "xgbench: fabric send...")
	rep.FabricSend = measure(testing.Benchmark(benchFabricSend), 0)

	hotTicks, _ := perfbench.HotPath(hotPairs, hotHops)
	fmt.Fprintln(os.Stderr, "xgbench: stress hot path (new kernel)...")
	rep.StressHotPath = measure(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			perfbench.HotPath(hotPairs, hotHops)
		}
	}), float64(hotTicks))
	fmt.Fprintln(os.Stderr, "xgbench: stress hot path (pre-PR4 reference kernel)...")
	rep.StressHotPathRef = measure(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			perfbench.RefHotPath(hotPairs, hotHops)
		}
	}), float64(hotTicks))
	if rep.StressHotPathRef.NsPerOp > 0 {
		rep.StressImprovementPct = 100 * (rep.StressHotPathRef.NsPerOp - rep.StressHotPath.NsPerOp) /
			rep.StressHotPathRef.NsPerOp
	}

	e3Ticks, _, err := perfbench.StressShard(shardSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xgbench: e3 shard: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "xgbench: E3 stress shard (full simulator)...")
	rep.E3Stress = measure(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := perfbench.StressShard(shardSeed); err != nil {
				b.Fatal(err)
			}
		}
	}), float64(e3Ticks))

	e3rTicks, _, err := perfbench.StressShardRecorded(shardSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xgbench: recorded e3 shard: %v\n", err)
		os.Exit(1)
	}
	if e3rTicks != e3Ticks {
		fmt.Fprintf(os.Stderr, "xgbench: recording perturbed the shard: %d ticks recorded vs %d plain\n",
			e3rTicks, e3Ticks)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "xgbench: E3 stress shard with observation recording...")
	rep.E3StressRecorded = measure(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := perfbench.StressShardRecorded(shardSeed); err != nil {
				b.Fatal(err)
			}
		}
	}), float64(e3rTicks))
	if rep.E3Stress.NsPerOp > 0 {
		rep.RecordingOverheadPct = 100 * (rep.E3StressRecorded.NsPerOp - rep.E3Stress.NsPerOp) /
			rep.E3Stress.NsPerOp
	}

	e5Ticks, _, err := perfbench.WorkloadShard(workloadSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xgbench: e5 shard: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "xgbench: E5 runtime shard (full simulator)...")
	rep.E5Runtime = measure(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := perfbench.WorkloadShard(workloadSeed); err != nil {
				b.Fatal(err)
			}
		}
	}), float64(e5Ticks))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "xgbench: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "xgbench: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	os.Stdout.Write(data)

	fmt.Fprintf(os.Stderr, "xgbench: stress hot path %.1f%% faster than pre-PR4 kernel; fabric send %d allocs/op; recording overhead %.1f%%\n",
		rep.StressImprovementPct, rep.FabricSend.AllocsPerOp, rep.RecordingOverheadPct)
	if *check {
		fail := false
		if rep.FabricSend.AllocsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "xgbench: FAIL: Fabric.Send allocates %d objects/op on the steady-state path, budget is 0\n",
				rep.FabricSend.AllocsPerOp)
			fail = true
		}
		if rep.EngineScheduleSteady.AllocsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "xgbench: FAIL: Engine.Schedule allocates %d objects/op on the steady-state path, budget is 0\n",
				rep.EngineScheduleSteady.AllocsPerOp)
			fail = true
		}
		if rep.RecordingOverheadPct > 15 {
			fmt.Fprintf(os.Stderr, "xgbench: FAIL: observation recording costs %.1f%% on the E3 stress shard, budget is 15%%\n",
				rep.RecordingOverheadPct)
			fail = true
		}
		if base, err := readBaseline(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "xgbench: baseline %s unavailable (%v), single-accelerator regression gate skipped\n",
				*baseline, err)
		} else {
			gates := []struct {
				name     string
				now, was float64
			}{
				{"stress_hot_path", rep.StressHotPath.NsPerOp, base.StressHotPath.NsPerOp},
				{"e3_stress", rep.E3Stress.NsPerOp, base.E3Stress.NsPerOp},
			}
			for _, g := range gates {
				if g.was <= 0 {
					continue
				}
				pct := 100 * (g.now - g.was) / g.was
				fmt.Fprintf(os.Stderr, "xgbench: %s vs %s: %+.1f%% ns/op (budget +5%%)\n",
					g.name, *baseline, pct)
				if pct > 5 {
					fmt.Fprintf(os.Stderr, "xgbench: FAIL: single-accelerator %s regressed %.1f%% against %s, budget is 5%%\n",
						g.name, pct, *baseline)
					fail = true
				}
			}
		}
		if fail {
			os.Exit(1)
		}
	}
}

// readBaseline loads a previous xgbench report (any schema version —
// the xgbench/2 field names are stable) for the -check regression gate.
func readBaseline(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}
