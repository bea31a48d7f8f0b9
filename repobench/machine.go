package main

import (
	"fmt"
	"time"

	"crossingguard/internal/accel"
	"crossingguard/internal/campaign"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/consistency"
	"crossingguard/internal/mem"
	"crossingguard/internal/perm"
	"crossingguard/internal/seq"
	"crossingguard/internal/tester"
	"crossingguard/internal/workload"
)

// machine is one shard run through the public constructors: the
// composed system, what each layer call took, and what it returned.
type machine struct {
	sys *config.System
	// build, run and check are the CPU times of config.Build, the
	// workload runner (tester.Run or workload.Run) and consistency.Check.
	build, run, check time.Duration
	checked           bool // consistency.Check ran
	recs              int  // observation records checked
	memops            uint64
	ticks             uint64 // simulated run time
	err               error
}

// runMachine builds and runs a stress, kernel or chaos shard through
// config.Build and the layer runners, with the guard spans on or off.
func runMachine(s shard, spans bool) *machine {
	switch s.kind {
	case kindStress:
		return runStress(s, spans)
	case kindKernel:
		return runKernel(s, spans)
	}
	return replayChaos(s.chaos, spans)
}

// runStress is the §4.1 tester on a Small machine with every load and
// store recorded, then the offline check on one worker.
func runStress(s shard, spans bool) *machine {
	m := &machine{}
	rec := consistency.NewRecorder()
	t0 := cpuNow()
	m.sys = config.Build(config.Spec{Host: s.host, Org: s.org, CPUs: 2, AccelCores: 2,
		Seed: s.seed, Small: true, Spans: spans, Consistency: rec})
	t1 := cpuNow()
	cfg := tester.DefaultConfig(s.seed)
	cfg.StoresPerLoc = s.stores
	res, err := tester.Run(m.sys, cfg)
	t2 := cpuNow()
	m.build, m.run, m.err = t1-t0, t2-t1, err
	m.memops, m.ticks = res.Stores+res.Loads, uint64(res.EndTime)
	if m.err == nil && m.sys.Log.Count() != 0 {
		m.err = fmt.Errorf("protocol errors reported: %v", m.sys.Log.Errors[0])
	}
	if m.err == nil {
		m.check, m.recs, m.err = check(rec)
		m.checked = true
	}
	return m
}

// check runs the offline consistency check over a recorder's merged
// observation stream.
func check(rec *consistency.Recorder) (time.Duration, int, error) {
	t0 := cpuNow()
	recs := rec.Merged()
	v := consistency.Check(recs, consistency.Options{Workers: 1})
	d := cpuNow() - t0
	if !v.OK() {
		return d, len(recs), fmt.Errorf("offline consistency check: %v", v.First())
	}
	return d, len(recs), nil
}

// runKernel is one E5/E6 cell: a full-size machine with the kernel's
// permission table, nothing recorded.
func runKernel(s shard, spans bool) *machine {
	m := &machine{}
	cfg := workload.DefaultConfig(s.kernel)
	cfg.AccessesPerCore = s.accesses
	t0 := cpuNow()
	m.sys = config.Build(config.Spec{Host: s.host, Org: s.org, CPUs: 2, AccelCores: 2,
		Seed: s.seed, Spans: spans, Perms: workload.Perms(cfg)})
	t1 := cpuNow()
	res, err := workload.Run(m.sys, cfg)
	m.build, m.run = t1-t0, cpuNow()-t1
	m.err = err
	m.memops, m.ticks = res.AccelAccesses+res.CPUAccesses, uint64(res.Cycles)
	if m.err == nil && res.Errors != 0 {
		m.err = fmt.Errorf("protocol errors reported: %v", m.sys.Log.Errors[0])
	}
	return m
}

// hostView narrows a chaos machine for the tester the way campaign
// chaos shards do: drive and audit the host side only, since the
// accelerator is the adversary.
type hostView struct{ *config.System }

func (h hostView) Sequencers() []*seq.Sequencer { return h.CPUSeqs }
func (h hostView) Outstanding() int             { return h.HostOutstanding() }
func (h hostView) Audit() error                 { return h.AuditHostOnly() }

// replayChaos builds and runs a chaos shard through the public
// constructors exactly as campaign.RunShard does, so the counts
// RunShard keeps inside (engine events, per-channel traffic) can be
// read. replayCampaign proves each replay matches its RunShard result.
func replayChaos(spec campaign.ShardSpec, spans bool) *machine {
	m := &machine{}
	model, err := accel.ParseAdvModel(spec.Model)
	if err != nil {
		m.err = err
		return m
	}
	const base = mem.Addr(0x10000)
	var perms *perm.Table
	if spec.Confined {
		perms = perm.NewTable()
	}
	plan := spec.Faults
	var rec *consistency.Recorder
	if spec.Consistency {
		rec = consistency.NewRecorder()
	}
	t0 := cpuNow()
	m.sys = config.Build(config.Spec{Host: spec.Host, Org: spec.Org,
		CPUs: spec.CPUs, AccelCores: 1, Accels: spec.Accels, Shards: spec.Shards,
		Seed: spec.Seed * 41, Small: true, Spans: spans,
		Timeout: 2000, RecallRetries: 2, QuarantineAfter: 25,
		RecoverAfter: spec.RecoverAfter, MaxRecoveries: spec.MaxRecoveries,
		RecoverBackoff: spec.RecoverBackoff, RecoverBackoffCap: spec.RecoverBackoffCap,
		Perms: perms, Faults: &plan, Consistency: rec,
		CustomAccel: func(s *config.System, accelID, xgID coherence.NodeID) func() int {
			cfg := accel.AdvConfig{
				Model: model, Seed: spec.Seed * 43, Pool: fuzzPool(base),
				Budget: spec.Messages, Gap: 20, Deadline: 2000,
			}
			if d := config.DeviceOf(accelID); d > 0 {
				cfg.Seed += int64(d) * 1013
				cfg.Pool = fuzzPool(base + mem.Addr(d*0x8000))
				cfg.VictimPool = fuzzPool(base)
			}
			adv := accel.NewAdversary(accelID, xgID, s.Eng, s.Fab, cfg)
			s.OnDeviceReset(accelID, adv.Reset)
			return adv.Outstanding
		}})
	t1 := cpuNow()
	cfg := tester.DefaultConfig(spec.Seed * 47)
	cfg.StoresPerLoc = 25
	cfg.BaseAddr = base
	cfg.Deadline = 200_000_000
	cfg.SkipValueChecks = !spec.Confined && !spec.CheckValues
	res, err := tester.Run(hostView{m.sys}, cfg)
	m.build, m.run, m.err = t1-t0, cpuNow()-t1, err
	m.memops, m.ticks = res.Stores+res.Loads, uint64(res.EndTime)
	if m.err == nil && rec != nil && (spec.Confined || spec.CheckValues) {
		m.check, m.recs, m.err = check(rec)
		m.checked = true
	}
	return m
}

// shardFailure classifies a campaign shard result: an error (value
// mismatch, hang, audit or offline-check failure, panic) or a
// protocol error the guard did not classify.
func shardFailure(r *campaign.ShardResult) error {
	if r.Err != nil {
		return r.Err
	}
	if code := unclassified(r.ByCode); code != "" {
		return fmt.Errorf("unclassified protocol error %s", code)
	}
	return nil
}

// runSafe runs a stress, kernel or chaos shard through runMachine and
// turns a panic into a shard failure, as the campaign runner does; m
// is nil after a panic.
func runSafe(s shard, spans bool) (m *machine, panicked error) {
	defer func() {
		if r := recover(); r != nil {
			m, panicked = nil, fmt.Errorf("PANIC: %v", r)
		}
	}()
	return runMachine(s, spans), nil
}

// runCampaign runs a chaos shard through campaign.RunShard, recovering a
// panic into a shard failure as the campaign runner does.
func runCampaign(spec campaign.ShardSpec) (res campaign.ShardResult, d time.Duration) {
	t0 := cpuNow()
	defer func() {
		if r := recover(); r != nil {
			res = campaign.ShardResult{Spec: spec, Err: fmt.Errorf("PANIC: %v", r)}
		}
		d = cpuNow() - t0
	}()
	return campaign.RunShard(spec, false), 0
}
