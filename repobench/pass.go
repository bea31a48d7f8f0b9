package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"crossingguard/internal/campaign"
	"crossingguard/internal/coherence"
	"crossingguard/internal/network"
	"crossingguard/internal/stats"
	"crossingguard/internal/workload"
)

// hist counts integral observations (ticks, queue depths) exactly, so
// the histograms of many shards merge in a few entries. Keeping every
// sample instead would hold megabytes of channel depths, which would
// show in peak_heap_mb and in the collector's pacing of the timed rounds.
type hist map[int64]uint64

// addSample folds an obs histogram's sample into h. The sample holds
// integral values, so each order statistic, read back through
// Quantile, rounds to the exact observation.
func (h hist) addSample(s *stats.Sample) {
	n := s.N()
	for k := 0; k < n; k++ {
		q := 0.0
		if n > 1 {
			q = float64(k) / float64(n-1)
		}
		h[int64(math.Round(s.Quantile(q)))]++
	}
}

// quantile is the q-th quantile of the observations, as
// stats.Sample.Quantile gives it. An empty histogram reads 0.
func (h hist) quantile(q float64) float64 {
	var s stats.Sample
	for v, c := range h {
		for ; c > 0; c-- {
			s.Add(float64(v))
		}
	}
	return s.Quantile(q)
}

// spanPhases are the guard span phases the traced run reports.
var spanPhases = []string{"request", "check", "recall", "retry", "grant"}

// exact is what one pass simulated: deterministic counts and
// distributions for a given shard list, read from the layers' public
// state after each machine ran.
type exact struct {
	shards, memops, ticks, events, deliveries uint64
	msgs, crossMsgs, crossBytes               uint64
	putsBytes, toGuardBytes                   uint64
	hostTrans, accelTrans                     uint64
	crossings, coalesced, retries, violations uint64
	quarantines, recoveries, injected, recs   uint64
	cpuLatSum, cpuLatN                        uint64
	storage                                   int
	cfgTimer, cfgMemops                       map[string]uint64
	crossing, depth, accelLat, recoveryTotal  hist
	spans                                     map[string]hist
}

func newExact() *exact {
	e := &exact{cfgTimer: map[string]uint64{}, cfgMemops: map[string]uint64{},
		crossing: hist{}, depth: hist{}, accelLat: hist{}, recoveryTotal: hist{}, spans: map[string]hist{}}
	for _, ph := range spanPhases {
		e.spans[ph] = hist{}
	}
	return e
}

// inspect reads one finished machine through the obs.Registry, the
// fabric's VisitStats, the controllers' coverage, the guards and the
// sequencers, and adds it to e.
func (e *exact) inspect(m *machine, key string) error {
	sys, reg := m.sys, m.sys.Obs
	e.shards++
	e.memops += m.memops
	e.ticks += m.ticks
	e.events += sys.Eng.Executed
	msgs := reg.Counter("net.msgs").Value()
	deliveries := msgs - reg.Counter("fault.drop").Value() + reg.Counter("fault.dup").Value()
	e.msgs += msgs
	e.deliveries += deliveries
	e.cfgTimer[key] += sys.Eng.Executed - deliveries
	e.cfgMemops[key] += m.memops

	cross := crossingSet(sys)
	guardOf := map[coherence.NodeID]coherence.NodeID{}
	for _, g := range sys.Guards {
		guardOf[g.AccelID()] = g.ID()
	}
	var crossBytes uint64
	sys.Fab.VisitStats(func(src, dst coherence.NodeID, s *network.Stats) {
		if cross[[2]coherence.NodeID{src, dst}] {
			e.crossMsgs += s.Msgs
			crossBytes += s.Bytes
		}
		if g, ok := guardOf[src]; ok && g == dst {
			e.putsBytes += s.BytesByType[coherence.APutS]
			e.toGuardBytes += s.Bytes
		}
	})
	e.crossBytes += crossBytes
	if sys.Spec.CustomAccel == nil && sys.Spec.Accels <= 1 {
		if want := workload.CrossingBytes(sys); crossBytes != want {
			return fmt.Errorf("crossing bytes %d disagree with workload.CrossingBytes %d", crossBytes, want)
		}
	}

	for _, c := range sys.HCaches {
		e.hostTrans += c.Cov.Visits()
	}
	for _, c := range sys.AccelHCaches {
		e.hostTrans += c.Cov.Visits()
	}
	for _, c := range sys.ML1s {
		e.hostTrans += c.Cov.Visits()
	}
	for _, c := range sys.AccelMCaches {
		e.hostTrans += c.Cov.Visits()
	}
	if sys.HDir != nil {
		e.hostTrans += sys.HDir.Cov.Visits()
	}
	if sys.ML2 != nil {
		e.hostTrans += sys.ML2.Cov.Visits()
	}
	for _, c := range sys.AccelL1s {
		e.accelTrans += c.Cov.Visits()
	}
	for _, c := range sys.InnerL1s {
		e.accelTrans += c.Cov.Visits()
	}
	for _, c := range sys.AccelL2s {
		e.accelTrans += c.Cov.Visits()
	}

	crossing := reg.Histogram("xg.crossing.ticks").Sample()
	e.crossings += uint64(crossing.N())
	e.crossing.addSample(crossing)
	e.depth.addSample(reg.Histogram("net.channel.depth").Sample())
	e.coalesced += reg.Counter("guard.recall.coalesced").Value()
	e.retries += reg.Counter("guard.recall.retry").Value()
	e.quarantines += reg.Counter("guard.quarantine.entered").Value()
	e.violations += uint64(sys.Log.Count())
	if sys.Faults != nil {
		e.injected += sys.Faults.Injected
	}
	for _, g := range sys.Guards {
		e.recoveries += uint64(g.Recoveries())
		e.storage = max(e.storage, g.StorageBytes())
	}
	if sys.Spec.Spans {
		for _, ph := range spanPhases {
			e.spans[ph].addSample(reg.Histogram("xg.span." + ph + ".ticks").Sample())
		}
		e.recoveryTotal.addSample(reg.Histogram("xg.span.recovery.total.ticks").Sample())
	}
	for _, sq := range sys.CPUSeqs {
		e.cpuLatSum += uint64(sq.TotalLatency)
		e.cpuLatN += sq.Completed
	}
	for _, sq := range sys.AccelSeqs {
		for _, l := range sq.Latencies() {
			e.accelLat[int64(l)]++
		}
	}
	e.recs += uint64(m.recs)
	return nil
}

// fingerprint is a shard's simulated fingerprint: every run of the same shard
// must reproduce it exactly, in later rounds and in the traced pass.
// events is 0 for campaign shards, whose engine is not exposed.
type fingerprint struct {
	memops, ticks, events, msgs, bytes uint64
	failed                             bool
}

func machinePrint(m *machine) fingerprint {
	return fingerprint{memops: m.memops, ticks: m.ticks, events: m.sys.Eng.Executed,
		msgs: m.sys.Obs.Counter("net.msgs").Value(), bytes: m.sys.Obs.Counter("net.bytes").Value(),
		failed: m.failure() != nil}
}

func campaignPrint(r *campaign.ShardResult) fingerprint {
	p := fingerprint{memops: r.Res.Stores + r.Res.Loads, ticks: uint64(r.Res.EndTime), failed: shardFailure(r) != nil}
	if r.Obs != nil {
		p.msgs, p.bytes = r.Obs.Counter("net.msgs").Value(), r.Obs.Counter("net.bytes").Value()
	}
	return p
}

// pass is one measured run over the shard list: the simulated counts
// of an untimed first round, and host-time samples from the timed
// rounds after it. Host times are raw here; the metrics scale them by
// the reference kernel timed after every shard.
type pass struct {
	spans bool
	// shardMS is every timed shard run's host time (ms), busy their sum.
	shardMS []float64
	busy    time.Duration
	// Host time of the layer calls (ms): every timed round, and the
	// replays of campaign shards.
	buildMS, checkMS, campaignMS, readMS []float64
	simTime                              time.Duration // tester.Run / workload.Run
	simEvents                            uint64        // events executed within simTime
	checkTime                            time.Duration
	checkRecs                            uint64
	memops                               uint64 // one round
	rounds                               int    // timed rounds
	attempted, failed                    int
	firstFail                            error
	allocs, allocBytes, peakHeap         uint64
	profile                              []byte // CPU profile of the untimed profiled round
	ref                                  *refKernel
	refMS                                []float64 // reference kernel, after every shard
	ex                                   *exact
	prints                               []fingerprint
}

// memStats returns the cumulative allocation counters.
func memStats() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// liveHeap reads the heap the last garbage collection found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// measure runs the untraced pass over the shard list and, when traced
// is set, the traced pass with the guard spans on. Each pass starts
// with an untimed round that runs every shard once and reads its
// layers. Timed rounds follow until seconds of wall time per pass have
// passed; there is always at least one. With traced set, the two
// passes alternate their timed rounds, so that drift of the machine's
// speed does not show as tracing overhead, and the traced pass then
// runs one more round, untimed, under the CPU profile. It returns an
// error only when the benchmark itself is broken: a shard that
// simulates differently in two runs (a campaign run included, against
// its replay) or a failed cross-check. Shard failures are counted
// instead.
func measure(list []shard, seconds float64, traced bool) (plain, tr *pass, err error) {
	passes := []*pass{{ex: newExact()}}
	if traced {
		passes = append(passes, &pass{spans: true, ex: newExact()})
	}
	for _, p := range passes {
		if err := p.firstRound(list); err != nil {
			return nil, nil, err
		}
	}
	plain = passes[0]
	start := time.Now()
	for plain.rounds == 0 || time.Since(start).Seconds() < seconds*float64(len(passes)) {
		for _, p := range passes {
			if err := p.round(list); err != nil {
				return nil, nil, err
			}
		}
	}
	if traced {
		tr = passes[1]
		if err := tr.profileRound(list); err != nil {
			return nil, nil, err
		}
	}
	return plain, tr, nil
}

// firstRound runs every shard once, untimed, and reads its layers.
func (p *pass) firstRound(list []shard) error {
	for _, s := range list {
		fp, fail, err := p.first(s)
		if err != nil {
			return err
		}
		p.count(s, fail)
		p.prints = append(p.prints, fp)
		p.memops += fp.memops
	}
	p.ref = newRefKernel()
	return nil
}

// round runs one timed round. A shard's host time is the process CPU
// time from its start until the next shard starts, less the reference
// kernel's own thread time, so that collector work the shard leaves
// running while the kernel is timed still counts as the shard's.
func (p *pass) round(list []shard) error {
	m0, b0 := memStats()
	for i, s := range list {
		t0 := cpuNow()
		fp, fail := p.timed(s)
		ref, refTotal := p.ref.measure()
		d := cpuNow() - t0 - refTotal
		p.refMS = append(p.refMS, ms(ref))
		p.count(s, fail)
		p.shardMS = append(p.shardMS, ms(d))
		p.busy += d
		if fp != p.prints[i] {
			return fmt.Errorf("%s simulates differently: first round %+v, timed round %d %+v", s.label(), p.prints[i], p.rounds+1, fp)
		}
	}
	m1, b1 := memStats()
	p.allocs += m1 - m0
	p.allocBytes += b1 - b0
	p.rounds++
	return nil
}

// profileRound runs the shard list once more under the CPU profile and
// keeps only the profile. No host time is taken here: while the
// profiler's process CPU timer is armed, Linux advances the process
// CPU clock only at scheduler ticks, so short layer calls read 0.
func (p *pass) profileRound(list []shard) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for i, s := range list {
		if fp, _, _, _ := runShard(s, p.spans); fp != p.prints[i] {
			pprof.StopCPUProfile()
			return fmt.Errorf("%s simulates differently: first round %+v, profiled round %+v", s.label(), p.prints[i], fp)
		}
	}
	pprof.StopCPUProfile()
	p.profile = prof.Bytes()
	return nil
}

// first runs a shard in the untimed round and reads its layers. A
// campaign shard runs as its replay through the public constructors,
// whose fingerprint (without the event count RunShard does not expose)
// every timed campaign.RunShard run must then reproduce.
func (p *pass) first(s shard) (fp fingerprint, fail, err error) {
	m, panicked := runSafe(s, p.spans)
	if panicked != nil {
		return fingerprint{failed: true}, panicked, nil
	}
	if m.sys == nil {
		return fp, nil, fmt.Errorf("%s: %v", s.label(), m.err)
	}
	fp, fail = machinePrint(m), m.failure()
	if s.kind == kindChaos {
		fp.events = 0
		p.addLayers(m)
	}
	return fp, fail, p.read(m, s)
}

// timed runs a shard in a timed round, records its layer calls' host
// times, and returns its fingerprint and its failure.
func (p *pass) timed(s shard) (fingerprint, error) {
	fp, fail, m, d := runShard(s, p.spans)
	if s.kind == kindChaos {
		p.campaignMS = append(p.campaignMS, ms(d))
	} else if m != nil {
		p.addLayers(m)
	}
	return fp, fail
}

// runShard runs a shard as the timed rounds do: a chaos shard through
// campaign.RunShard, returning its host time d, any other through its
// machine m, which is nil after a panic.
func runShard(s shard, spans bool) (fp fingerprint, fail error, m *machine, d time.Duration) {
	if s.kind == kindChaos {
		spec := s.chaos
		spec.Spans = spans
		res, d := runCampaign(spec)
		return campaignPrint(&res), shardFailure(&res), nil, d
	}
	m, panicked := runSafe(s, spans)
	if panicked != nil {
		return fingerprint{failed: true}, panicked, nil, 0
	}
	return machinePrint(m), m.failure(), m, 0
}

// count records one shard run and its failure.
func (p *pass) count(s shard, fail error) {
	p.attempted++
	if fail != nil {
		p.failed++
		if p.firstFail == nil {
			p.firstFail = fmt.Errorf("%s: %w", s.label(), fail)
		}
	}
}

// read measures the heap a finished machine holds, then reads its
// layers. A forced collection makes the live heap exact, so
// peak_heap_mb does not depend on when the collector last ran; it is
// the largest live heap of any shard's machine at the end of its run.
func (p *pass) read(m *machine, s shard) error {
	runtime.GC()
	p.peakHeap = max(p.peakHeap, liveHeap())
	t0 := cpuNow()
	if err := p.ex.inspect(m, s.cfgKey()); err != nil {
		return fmt.Errorf("%s: %w", s.label(), err)
	}
	p.readMS = append(p.readMS, ms(cpuNow()-t0))
	return nil
}

// addLayers records the host time of a machine's layer calls.
func (p *pass) addLayers(m *machine) {
	p.buildMS = append(p.buildMS, ms(m.build))
	p.simTime += m.run
	p.simEvents += m.sys.Eng.Executed
	if m.checked {
		p.checkMS = append(p.checkMS, ms(m.check))
		p.checkTime += m.check
		p.checkRecs += uint64(m.recs)
	}
}

// failure classifies a machine run like shardFailure does a campaign
// result.
func (m *machine) failure() error {
	if m.err != nil {
		return m.err
	}
	if code := unclassified(m.sys.Log.ByCode); code != "" {
		return fmt.Errorf("unclassified protocol error %s", code)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
