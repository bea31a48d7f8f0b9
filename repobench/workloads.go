package main

import (
	"fmt"
	"sort"
	"strings"

	"crossingguard/internal/campaign"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/mem"
	"crossingguard/internal/workload"
)

// Workload names, in the order the benchmark lists them.
const (
	wlStress    = "stress-contended"
	wlKernels   = "kernels-paper"
	wlAdversary = "adversary-recovery"
)

var workloadNames = []string{wlStress, wlKernels, wlAdversary}

// workloadWhy records why each workload is in the benchmark.
var workloadWhy = map[string]string{
	wlStress:    "paper sec 4.1 tester on all 12 configs, small caches, 8 hot lines x 2 locations, every op recorded and checked: loads host wait FIFOs, guard recalls, recorder, checker",
	wlKernels:   "E5/E6 kernels x 12 configs, full caches, nothing recorded: accel L1/L2 hits dominate, guard deferral and checker idle, so stress-only speedups read as no change",
	wlAdversary: "every adversary x fault plan x confined/shared pages on 4 guard orgs x 2 hosts, plus 2-device and flapper recovery cells: the guard rejects, fences, drains and resets",
}

// kind selects how a shard is driven.
type kind int

const (
	kindStress kind = iota // config.Build + tester.Run + consistency.Check
	kindKernel             // config.Build + workload.Run
	kindChaos              // campaign.RunShard (replayed through config.Build for exact counts)
)

// shard is one (host, organization, kernel or adversary, seed) cell.
type shard struct {
	kind kind
	host config.HostKind
	org  config.Org
	seed int64
	// stores is the tester's StoresPerLoc (stress shards).
	stores int
	// kernel and accesses select the E5 kernel and its AccessesPerCore
	// (kernel shards).
	kernel   workload.Kind
	accesses int
	// chaos is the campaign shard (chaos shards).
	chaos campaign.ShardSpec
}

// cfgKey names the shard's configuration in metric names:
// "hammer.xg-txn-1L" for hammer/xg-txn/1L.
func (s shard) cfgKey() string {
	return cfgKey(s.host, s.org)
}

func cfgKey(h config.HostKind, o config.Org) string {
	return h.String() + "." + strings.ReplaceAll(o.String(), "/", "-")
}

// label renders the shard for error messages.
func (s shard) label() string {
	switch s.kind {
	case kindStress:
		return fmt.Sprintf("stress %v/%v seed=%d stores=%d", s.host, s.org, s.seed, s.stores)
	case kindKernel:
		return fmt.Sprintf("kernel %v %v/%v seed=%d accesses=%d", s.kernel, s.host, s.org, s.seed, s.accesses)
	}
	return campaign.FormatSpec(s.chaos)
}

// size scales a workload's shard list. fullSize is what the benchmark
// runs; reducedSize keeps one cell per configuration and short shards
// so the benchmark's own test runs every workload in seconds.
type size struct {
	stressSeeds int // stress shards per configuration
	kernelSeeds int // kernel shards per (kernel, configuration) cell
	sharedSeeds int // adversary shards per shared-page chaos cell
	stores      int // tester StoresPerLoc
	accesses    int // kernel AccessesPerCore
	allCells    bool
}

var (
	fullSize    = size{stressSeeds: 10, kernelSeeds: 2, sharedSeeds: 3, stores: 25, accesses: 1000, allCells: true}
	reducedSize = size{stressSeeds: 1, kernelSeeds: 1, sharedSeeds: 1, stores: 4, accesses: 150}
)

var hosts = []config.HostKind{config.HostHammer, config.HostMESI}

// mix derives the i-th shard seed from the workload seed (splitmix64),
// so the same --seed always yields the same shard list and neighbouring
// workload seeds yield unrelated ones.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return int64(z>>33) + 1 // positive, fits every downstream multiplier
}

// shards builds the workload's shard list from its seed. The list is
// fixed for a (workload, seed, size) triple; the program receives only
// these generated cells.
func shards(name string, seed int64, sz size) ([]shard, error) {
	var out []shard
	switch name {
	case wlStress:
		for rep := 0; rep < sz.stressSeeds; rep++ {
			for _, h := range hosts {
				for _, o := range config.AllOrgs {
					out = append(out, shard{kind: kindStress, host: h, org: o,
						seed: mix(seed, len(out)), stores: sz.stores})
				}
			}
		}
	case wlKernels:
		kinds := workload.AllKinds
		for rep := 0; rep < sz.kernelSeeds; rep++ {
			for ki, k := range kinds {
				for _, h := range hosts {
					for oi, o := range config.AllOrgs {
						if !sz.allCells && (oi+len(config.AllOrgs)*int(h))%len(kinds) != ki {
							continue // reduced size: one kernel per configuration
						}
						out = append(out, shard{kind: kindKernel, host: h, org: o, kernel: k,
							seed: mix(seed, len(out)), accesses: sz.accesses})
					}
				}
			}
		}
	case wlAdversary:
		for _, spec := range adversarySpecs(sz) {
			s := mix(seed, len(out))
			spec.Seed = s
			if spec.Faults.Active() {
				spec.Faults.Seed += s
			}
			spec.Index = len(out)
			out = append(out, shard{kind: kindChaos, host: spec.Host, org: spec.Org, seed: s, chaos: spec})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return out, nil
}

// adversarySpecs is the adversary-recovery cell list: the chaos sweep
// (every adversary model against every fault preset, on confined and
// on shared pages, plus the two-device cross-device false-sharing
// cells) and the recovery sweep's flapper cells (recovery armed,
// consistency on). A confined adversary is never granted a line, so
// only the shared-page cells yield crossings; they run sharedSeeds
// times each, enough grants for a crossing-latency tail that does not
// hinge on a handful of shards.
func adversarySpecs(sz size) []campaign.ShardSpec {
	const cpus, messages = 2, 3000
	var out []campaign.ShardSpec
	single := 0
	for _, spec := range campaign.ChaosSweep(1, cpus, messages) {
		reps := 1
		if spec.Accels <= 1 {
			// Reduced size keeps every 16th single-device cell, rotating
			// through models, fault plans and page confinement.
			single++
			if !sz.allCells && (single-1)%16 != 0 {
				continue
			}
			if !spec.Confined {
				reps = sz.sharedSeeds
			}
		}
		for i := 0; i < reps; i++ {
			out = append(out, spec)
		}
	}
	return append(out, campaign.RecoverySweep(1, cpus, messages)...)
}

// configs lists each configuration of the shard list once, in order;
// the set-up phase warms one shard per configuration.
func configs(list []shard) []shard {
	seen := map[string]bool{}
	var out []shard
	for _, s := range list {
		if !seen[s.cfgKey()] {
			seen[s.cfgKey()] = true
			out = append(out, s)
		}
	}
	return out
}

// fuzzPool is the 8-line pool campaign chaos shards aim their
// adversaries at (campaign's unexported helper of the same name).
func fuzzPool(base mem.Addr) []mem.Addr {
	pool := make([]mem.Addr, 8)
	for i := range pool {
		pool[i] = base + mem.Addr(i*mem.BlockBytes)
	}
	return pool
}

// unclassified returns the first protocol error no guarantee or host
// anomaly class accounts for: a message the host protocol has no
// transition for (HOST.*.Unexpected), i.e. a breach the guard let
// through unclassified. Classified outcomes (XG.* guarantee codes and
// named host anomalies such as HOST.AckAsData) are expected from
// adversaries.
func unclassified(byCode map[string]uint64) string {
	codes := make([]string, 0, len(byCode))
	for code, n := range byCode {
		if n > 0 && strings.HasSuffix(code, ".Unexpected") {
			codes = append(codes, code)
		}
	}
	sort.Strings(codes)
	if len(codes) == 0 {
		return ""
	}
	return codes[0]
}

// crossingSet returns the directed channels that cross the
// host<->accelerator boundary: guard<->accelerator for guard
// organizations (every device, custom accelerators included),
// accelerator core<->host-side cache for host-side, and the
// accelerator's host-protocol cache<->host for accel-side. It agrees
// with workload.CrossingBytes on every machine that function handles.
func crossingSet(sys *config.System) map[[2]coherence.NodeID]bool {
	set := map[[2]coherence.NodeID]bool{}
	both := func(a, b coherence.NodeID) {
		set[[2]coherence.NodeID{a, b}] = true
		set[[2]coherence.NodeID{b, a}] = true
	}
	var accNodes []coherence.NodeID
	for _, c := range sys.AccelHCaches {
		accNodes = append(accNodes, c.ID())
	}
	for _, c := range sys.AccelMCaches {
		accNodes = append(accNodes, c.ID())
	}
	switch {
	case len(sys.Guards) > 0:
		for _, g := range sys.Guards {
			both(g.ID(), g.AccelID())
		}
	case sys.Spec.Org == config.OrgHostSide:
		for i, sq := range sys.AccelSeqs {
			both(sq.ID(), accNodes[i])
		}
	default:
		var hostNodes []coherence.NodeID
		if sys.HDir != nil {
			hostNodes = append(hostNodes, sys.HDir.ID())
			for _, c := range sys.HCaches {
				hostNodes = append(hostNodes, c.ID())
			}
		} else {
			hostNodes = append(hostNodes, sys.ML2.ID())
			for _, c := range sys.ML1s {
				hostNodes = append(hostNodes, c.ID())
			}
		}
		for _, a := range accNodes {
			for _, h := range hostNodes {
				both(a, h)
			}
		}
	}
	return set
}
