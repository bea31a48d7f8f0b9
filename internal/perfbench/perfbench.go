// Package perfbench holds the simulator's hot-path performance harness:
// small, deterministic workloads exercised both by the Go benchmarks
// (BenchmarkEngineSchedule, BenchmarkFabricSend, BenchmarkStressHotPath)
// and by cmd/xgbench, which runs them under testing.Benchmark and writes
// the machine-readable perf-trajectory file (BENCH_PR4.json).
//
// Every workload exists in two variants: the production kernel
// (internal/sim + internal/network) and a frozen pre-PR4 reference
// (internal/sim/simref plus the legacy closure/map delivery re-created in
// legacy.go), so "X% faster than the pre-change kernel" is measured in
// the same binary on the same machine rather than quoted from an old
// commit.
package perfbench

import (
	"fmt"

	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/consistency"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/sim"
	"crossingguard/internal/tester"
	"crossingguard/internal/workload"
)

// ScheduleDrain pumps events through the production kernel: a fan of
// self-rescheduling callbacks with a deterministic mix of delays
// (including zero-delay same-tick ties), drained to quiescence. It
// returns the number of events executed, which depends only on events.
func ScheduleDrain(events int) uint64 {
	eng := sim.NewEngine()
	left := events
	var fns [4]func()
	for i := range fns {
		d := sim.Time(i * 3) // delays 0,3,6,9: ties and spread
		fns[i] = func() {
			if left > 0 {
				left--
				eng.Schedule(d, fns[(left*7)%4])
			}
		}
	}
	for i := 0; i < 16 && left > 0; i++ {
		left--
		eng.Schedule(sim.Time(i%5), fns[i%4])
	}
	eng.RunUntilQuiet()
	return eng.Executed
}

// echo is a controller that bounces each received message back to its
// peer until the shared hop budget is spent. Each direction re-sends one
// preallocated message: Send copies it into the fabric's delivery record
// and Recv only borrows that copy (see coherence.Msg), so a message may
// be re-sent while earlier copies are still in flight, and steady state
// allocates nothing.
type echo struct {
	id    coherence.NodeID
	fab   *network.Fabric
	reply *coherence.Msg // the message this side sends (id -> peer)
	left  *int
}

// ID implements coherence.Controller.
func (e *echo) ID() coherence.NodeID { return e.id }

// Name implements coherence.Controller.
func (e *echo) Name() string { return "echo" }

// Recv implements coherence.Controller: consume a hop, bounce back.
func (e *echo) Recv(m *coherence.Msg) {
	if *e.left > 0 {
		*e.left--
		e.fab.Send(e.reply)
	}
}

// HotPath drives the production fabric hot path: pairs independent
// ping-pong message chains between echo controllers over an ordered
// unit-latency channel, each chain bouncing until the shared budget of
// hops total sends is spent. It returns the final simulated time and the
// events executed — both functions of (pairs, hops) only, asserted
// identical to RefHotPath by TestHotPathMatchesReference.
func HotPath(pairs, hops int) (sim.Time, uint64) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
	left := hops
	a := &echo{id: 1, fab: fab, left: &left}
	b := &echo{id: 2, fab: fab, left: &left}
	a.reply = &coherence.Msg{Type: coherence.AGetS, Addr: 0x1000, Src: 1, Dst: 2}
	b.reply = &coherence.Msg{Type: coherence.ADataS, Addr: 0x1000, Src: 2, Dst: 1}
	fab.Register(a)
	fab.Register(b)
	for i := 0; i < pairs; i++ {
		// Send copies each chain head, so a literal per chain suffices.
		fab.Send(&coherence.Msg{Type: coherence.AGetS, Addr: mem.Addr(0x1000 + i*64), Src: 1, Dst: 2})
	}
	end := eng.RunUntilQuiet()
	return end, eng.Executed
}

// StressShard runs one E3-style random stress shard (the paper §4.1
// tester on the small MESI + 1-level Crossing Guard machine) and returns
// the simulated ticks and completed memory operations — the workload
// xgbench uses to report whole-simulator sim-ticks/sec.
func StressShard(seed int64) (ticks, memops uint64, err error) {
	sys := config.Build(config.Spec{Host: config.HostMESI, Org: config.OrgXGFull1L,
		CPUs: 2, AccelCores: 2, Seed: seed, Small: true})
	cfg := tester.DefaultConfig(seed*37 + 5)
	cfg.StoresPerLoc = 20
	res, err := tester.Run(sys, cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("perfbench: stress shard: %w", err)
	}
	return uint64(res.EndTime), res.Stores + res.Loads, nil
}

// StressShardRecorded runs the identical workload to StressShard with an
// observation recorder attached to every sequencer — the PR6 overhead
// workload. Recording must be invisible to the simulation: the returned
// ticks and memops are asserted equal to StressShard's, and xgbench uses
// the wall-clock delta between the two to report recording_overhead_pct
// (acceptance bar: <= 15%).
func StressShardRecorded(seed int64) (ticks, memops uint64, err error) {
	sys := config.Build(config.Spec{Host: config.HostMESI, Org: config.OrgXGFull1L,
		CPUs: 2, AccelCores: 2, Seed: seed, Small: true,
		Consistency: consistency.NewRecorder()})
	cfg := tester.DefaultConfig(seed*37 + 5)
	cfg.StoresPerLoc = 20
	res, err := tester.Run(sys, cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("perfbench: recorded stress shard: %w", err)
	}
	if len(sys.Consistency.Merged()) == 0 {
		return 0, 0, fmt.Errorf("perfbench: recorded stress shard produced no observations")
	}
	return uint64(res.EndTime), res.Stores + res.Loads, nil
}

// WorkloadShard runs one E5-style blocked-access workload and returns
// the simulated ticks and modeled accelerator cycles.
func WorkloadShard(seed int64) (ticks, cycles uint64, err error) {
	cfg := workload.DefaultConfig(workload.Blocked)
	cfg.AccessesPerCore = 800
	sys := config.Build(config.Spec{Host: config.HostMESI, Org: config.OrgXGFull1L,
		CPUs: 2, AccelCores: 1, Seed: seed, Perms: workload.Perms(cfg)})
	res, err := workload.Run(sys, cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("perfbench: workload shard: %w", err)
	}
	return uint64(sys.Eng.Now()), uint64(res.Cycles), nil
}
