package main

import (
	"fmt"

	"crossingguard/internal/config"
	"crossingguard/internal/stats"
)

// metricDef describes one reported metric. bound applies to end-to-end
// metrics: the share of the parent's median by which the metric may
// worsen before a change counts as a regression. moves names, for a
// per-layer metric, the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are the metrics of the untraced run, reported per workload.
var endToEnd = []metricDef{
	{name: "memops_per_s", unit: "memops/s", better: "higher", bound: 0.2},
	{name: "shard_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "shard_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "allocs_per_memop", unit: "allocs/memop", better: "lower", bound: 0.1},
	{name: "bytes_per_memop", unit: "B/memop", better: "lower", bound: 0.05},
	{name: "events_per_memop", unit: "events/memop", better: "lower", bound: 0.1},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sim_ticks_per_memop", unit: "ticks/memop", better: "lower", bound: 0.05},
	{name: "crossing_ticks_p50", unit: "ticks", better: "lower", bound: 0.15},
	{name: "crossing_ticks_p99", unit: "ticks", better: "lower", bound: 0.25},
	{name: "crossing_bytes_per_memop", unit: "B/memop", better: "lower", bound: 0.05},
	{name: "shard_pass_frac", unit: "ratio", better: "higher", bound: 0.01},
}

// simulatedMetrics are exact: they must read the same in the plain and
// the traced run of one seed, and in every run of one seed.
var simulatedMetrics = []string{"sim_ticks_per_memop", "crossing_ticks_p50", "crossing_ticks_p99",
	"crossing_bytes_per_memop", "events_per_memop", "hostproto.transitions_per_memop", "accel.transitions_per_memop"}

const (
	onAll       = "all workloads"
	onStress    = wlStress
	onKernels   = wlKernels
	onAdversary = wlAdversary
)

// perLayer are the metrics of single layers, named <module>.<metric>
// after the packages under internal/, from the traced run's pair of
// passes.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := func(name, unit, better, moves string) metricDef {
		return metricDef{name: name, unit: unit, better: better, moves: moves}
	}
	defs := []metricDef{
		l("sim.ns_per_event", "ns/event", "lower", "memops_per_s on "+onAll),
		l("sim.timer_events_per_memop", "events/memop", "lower",
			"events_per_memop and memops_per_s on "+onStress+"; no change on "+onKernels),
	}
	for _, h := range hosts {
		for _, o := range config.AllOrgs {
			defs = append(defs, l("sim.timer_events_per_memop."+cfgKey(h, o), "events/memop", "lower",
				"events_per_memop and memops_per_s on "+onStress+" (this configuration)"))
		}
	}
	defs = append(defs,
		l("network.msgs_per_memop", "msgs/memop", "lower", "events_per_memop and crossing_bytes_per_memop on "+onAll),
		l("network.crossing_msgs_per_memop", "msgs/memop", "lower", "crossing_bytes_per_memop and events_per_memop on "+onAll),
		l("network.channel_depth_p99", "msgs", "lower", "crossing_bytes_per_memop and events_per_memop on "+onAll),
		l("hostproto.transitions_per_memop", "trans/memop", "lower", "allocs_per_memop and memops_per_s, mostly on "+onStress),
		l("accel.transitions_per_memop", "trans/memop", "lower", "allocs_per_memop and memops_per_s, mostly on "+onKernels),
		l("core.crossings_per_memop", "crossings/memop", "lower", "crossing_ticks_* and sim_ticks_per_memop on "+onKernels),
		l("core.recall_coalesced_per_memop", "recalls/memop", "higher", "crossing_ticks_* and sim_ticks_per_memop on "+onKernels),
		l("core.recall_retry_per_memop", "retries/memop", "lower", "crossing_ticks_* on "+onKernels+"; shard_pass_frac on "+onAdversary),
		l("core.violations_per_shard", "count/shard", "lower", "shard_pass_frac on "+onAdversary),
		l("core.quarantines_per_shard", "count/shard", "lower", "shard_pass_frac on "+onAdversary),
		l("core.recoveries_per_shard", "count/shard", "higher", "shard_pass_frac on "+onAdversary),
		l("core.storage_bytes", "B", "lower", "crossing_ticks_* and sim_ticks_per_memop on "+onKernels),
		l("accel.access_ticks_p50", "ticks", "lower", "sim_ticks_per_memop on "+onKernels),
		l("accel.access_ticks_p99", "ticks", "lower", "sim_ticks_per_memop on "+onKernels),
		l("accel.puts_frac", "ratio", "lower", "sim_ticks_per_memop on "+onKernels+" (paper: 1-4% of guard-to-host bandwidth)"),
		l("seq.cpu_access_ticks_mean", "ticks", "lower", "sim_ticks_per_memop on "+onKernels+" (CPU interference)"),
		l("consistency.recs_per_memop", "recs/memop", "lower", "shard_ms_* and memops_per_s on "+onStress+"; 0 on "+onKernels),
		l("consistency.check_ms_p50", "ms", "lower", "shard_ms_* and memops_per_s on "+onStress+"; 0 on "+onKernels),
		l("consistency.check_recs_per_s", "recs/s", "higher", "shard_ms_* and memops_per_s on "+onStress+"; 0 on "+onKernels),
		l("config.build_ms_p50", "ms", "lower", "setup_s and shard_ms_p50 on "+onAll),
		l("faults.injected_per_shard", "count/shard", "lower", "shard_pass_frac on "+onAdversary+"; 0 elsewhere"),
		l("campaign.shard_ms_p50", "ms", "lower", "shard_ms_* and memops_per_s on "+onAdversary+"; 0 elsewhere"),
		l("obs.read_ms_p50", "ms", "lower", "none: the benchmark's reading of each layer, kept out of shard_ms"),
	)
	for _, ph := range spanPhases {
		for _, q := range []string{"p50", "p99"} {
			defs = append(defs, l("obs.span."+ph+"_ticks_"+q, "ticks", "lower",
				"crossing_ticks_"+q+" on "+onKernels+" and "+onStress))
		}
	}
	defs = append(defs, l("obs.span.recovery_total_ticks_p50", "ticks", "lower", "sim_ticks_per_memop on "+onAdversary+"; 0 elsewhere"))
	for _, b := range cpuBuckets {
		defs = append(defs, l("cpu_share."+b, "ratio", "lower", "memops_per_s on "+onAll+" (host CPU share of this layer)"))
	}
	return append(defs,
		l("obs.trace_overhead_pct", "%", "lower", "none: traced run against plain run"),
		l("bench.ref_kernel_ms", "ms", "lower", "none: the machine-speed reference every host time is scaled by"))
}

func quantile(xs []float64, q float64) float64 {
	var s stats.Sample
	s.AddN(xs...)
	return s.Quantile(q)
}

func per(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// simulated computes the exact metrics of a pass.
func simulated(p *pass) map[string]float64 {
	e := p.ex
	return map[string]float64{
		"sim_ticks_per_memop":             per(e.ticks, e.memops),
		"crossing_ticks_p50":              e.crossing.quantile(0.5),
		"crossing_ticks_p99":              e.crossing.quantile(0.99),
		"crossing_bytes_per_memop":        per(e.crossBytes, e.memops),
		"events_per_memop":                per(e.events, e.memops),
		"hostproto.transitions_per_memop": per(e.hostTrans, e.memops),
		"accel.transitions_per_memop":     per(e.accelTrans, e.memops),
	}
}

// endToEndMetrics computes the end-to-end metrics of the untraced pass.
// Host times are scaled to the nominal machine (see calib.go), set-up
// time by the kernel runs of set-up. Allocations are counted over the
// timed rounds.
func endToEndMetrics(p *pass, setupS float64, setupRef []float64) map[string]float64 {
	k := scale(p.refMS)
	out := map[string]float64{
		"memops_per_s":     float64(p.memops*uint64(p.rounds)) / (p.busy.Seconds() * k),
		"shard_ms_p50":     quantile(p.shardMS, 0.5) * k,
		"shard_ms_p90":     quantile(p.shardMS, 0.9) * k,
		"allocs_per_memop": per(p.allocs, p.memops*uint64(p.rounds)),
		"bytes_per_memop":  per(p.allocBytes, p.memops*uint64(p.rounds)),
		"peak_heap_mb":     float64(p.peakHeap) / (1 << 20),
		"setup_s":          setupS * scale(setupRef),
		"shard_pass_frac":  1 - float64(p.failed)/float64(p.attempted),
	}
	for name, v := range simulated(p) {
		if !isLayer(name) {
			out[name] = v
		}
	}
	return out
}

func isLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// perLayerMetrics computes the per-layer metrics: counts and layer
// timings from the plain pass, spans and the CPU split from the traced
// pass, and the tracing overhead from the two.
func perLayerMetrics(plain, traced *pass) (map[string]float64, error) {
	e := plain.ex
	sh := float64(e.shards)
	k := scale(plain.refMS)
	out := map[string]float64{
		"sim.ns_per_event":                  per(uint64(plain.simTime.Nanoseconds()), plain.simEvents) * k,
		"sim.timer_events_per_memop":        per(e.events-e.deliveries, e.memops),
		"network.msgs_per_memop":            per(e.msgs, e.memops),
		"network.crossing_msgs_per_memop":   per(e.crossMsgs, e.memops),
		"network.channel_depth_p99":         e.depth.quantile(0.99),
		"core.crossings_per_memop":          per(e.crossings, e.memops),
		"core.recall_coalesced_per_memop":   per(e.coalesced, e.memops),
		"core.recall_retry_per_memop":       per(e.retries, e.memops),
		"core.violations_per_shard":         float64(e.violations) / sh,
		"core.quarantines_per_shard":        float64(e.quarantines) / sh,
		"core.recoveries_per_shard":         float64(e.recoveries) / sh,
		"core.storage_bytes":                float64(e.storage),
		"accel.access_ticks_p50":            e.accelLat.quantile(0.5),
		"accel.access_ticks_p99":            e.accelLat.quantile(0.99),
		"accel.puts_frac":                   per(e.putsBytes, e.toGuardBytes),
		"seq.cpu_access_ticks_mean":         per(e.cpuLatSum, e.cpuLatN),
		"consistency.recs_per_memop":        per(e.recs, e.memops),
		"consistency.check_ms_p50":          quantile(plain.checkMS, 0.5) * k,
		"consistency.check_recs_per_s":      0,
		"config.build_ms_p50":               quantile(plain.buildMS, 0.5) * k,
		"faults.injected_per_shard":         float64(e.injected) / sh,
		"campaign.shard_ms_p50":             quantile(plain.campaignMS, 0.5) * k,
		"obs.read_ms_p50":                   quantile(plain.readMS, 0.5) * k,
		"bench.ref_kernel_ms":               quantile(plain.refMS, 0.5),
		"obs.span.recovery_total_ticks_p50": traced.ex.recoveryTotal.quantile(0.5),
		"obs.trace_overhead_pct":            100 * (traced.busy.Seconds()/plain.busy.Seconds() - 1),
	}
	if plain.checkTime > 0 {
		out["consistency.check_recs_per_s"] = float64(plain.checkRecs) / (plain.checkTime.Seconds() * k)
	}
	for _, h := range hosts {
		for _, o := range config.AllOrgs {
			c := cfgKey(h, o)
			out["sim.timer_events_per_memop."+c] = per(e.cfgTimer[c], e.cfgMemops[c])
		}
	}
	for name, v := range simulated(plain) {
		if isLayer(name) {
			out[name] = v
		}
	}
	for _, ph := range spanPhases {
		out["obs.span."+ph+"_ticks_p50"] = traced.ex.spans[ph].quantile(0.5)
		out["obs.span."+ph+"_ticks_p99"] = traced.ex.spans[ph].quantile(0.99)
	}
	shares, err := cpuShares(traced.profile)
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		out["cpu_share."+b] = v
	}
	return out, nil
}

// sameSimulation reports the first simulated metric that differs
// between two passes over one shard list, and the first shard whose
// fingerprint differs.
func sameSimulation(a, b *pass) error {
	sa, sb := simulated(a), simulated(b)
	for _, k := range simulatedMetrics {
		if sa[k] != sb[k] {
			return fmt.Errorf("simulated metric %s differs between the plain (%v) and the traced run (%v)", k, sa[k], sb[k])
		}
	}
	for i := range a.prints {
		if a.prints[i] != b.prints[i] {
			return fmt.Errorf("shard %d simulates differently in the plain (%+v) and the traced run (%+v)", i, a.prints[i], b.prints[i])
		}
	}
	return nil
}
