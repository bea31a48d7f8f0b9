package main

import "time"

// The reference kernel is a fixed piece of work owned by the benchmark:
// a small discrete-event loop over a 4-ary heap, with indirect calls
// and pointer chasing like the simulator's own hot path, but no
// allocation and no map (a map's per-process hash seed would make its
// speed differ between runs). Timing it between shards measures how fast the
// machine is running right now; host-time metrics are scaled by it so
// that a shared machine's drift between runs does not read as a
// change of the program. The program cannot change this code or the
// cache state it is timed in, so a program regression is never scaled
// away.
const (
	refEvents = 8000
	refNodes  = 1 << 14 // small enough to stay cached between the two runs
	// refNominalMS is the kernel time host times are scaled to: they
	// read as if measured on a machine where the kernel takes this long,
	// a little slower than the 2-vCPU machine the benchmark was tuned on.
	refNominalMS = 1.0
)

type refEvent struct {
	at  uint64
	seq uint64
	fn  int
}

type refNode struct {
	next  *refNode
	state uint64
}

type refKernel struct {
	heap  []refEvent
	nodes []refNode
	fns   [4]func(k *refKernel, ev refEvent)
	now   uint64
	seq   uint64
	sum   uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{heap: make([]refEvent, 0, 64), nodes: make([]refNode, refNodes)}
	for i := range k.nodes {
		k.nodes[i].next = &k.nodes[(i*131+7)%refNodes]
	}
	for i := range k.fns {
		d := uint64(i*3 + 1)
		k.fns[i] = func(k *refKernel, ev refEvent) {
			n := &k.nodes[(ev.seq*2654435761)%refNodes]
			for j := 0; j < 4; j++ {
				n.state += ev.at ^ d
				n = n.next
			}
			k.sum += n.state
			k.push(refEvent{at: k.now + d + ev.seq%5, fn: int(n.state % 4)})
		}
	}
	return k
}

func (k *refKernel) push(ev refEvent) {
	k.seq++
	ev.seq = k.seq
	k.heap = append(k.heap, ev)
	i := len(k.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !refLess(k.heap[i], k.heap[p]) {
			break
		}
		k.heap[i], k.heap[p] = k.heap[p], k.heap[i]
		i = p
	}
}

func (k *refKernel) pop() refEvent {
	top := k.heap[0]
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap = k.heap[:last]
	i := 0
	for {
		best := i
		for c := 4*i + 1; c <= 4*i+4 && c < last; c++ {
			if refLess(k.heap[c], k.heap[best]) {
				best = c
			}
		}
		if best == i {
			return top
		}
		k.heap[i], k.heap[best] = k.heap[best], k.heap[i]
		i = best
	}
}

func refLess(a, b refEvent) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// scale is the factor that converts host times measured alongside
// refMS samples of the reference kernel to the nominal machine.
func scale(refMS []float64) float64 {
	return refNominalMS / quantile(refMS, 0.5)
}

// measure runs the kernel twice and returns the second run's CPU time,
// and the thread CPU time of both runs: the first brings the working
// set back into the caches, so the timing does not depend on what the
// preceding shard left there.
func (k *refKernel) measure() (run, total time.Duration) {
	total = threadCPU(func() {
		k.run()
		run = threadCPU(k.run)
	})
	return run, total
}

// run executes the fixed event count from a fresh queue.
func (k *refKernel) run() {
	k.heap = k.heap[:0]
	for i := 0; i < 32; i++ {
		k.push(refEvent{at: uint64(i % 7), fn: i % 4})
	}
	for n := 0; n < refEvents; n++ {
		ev := k.pop()
		k.now = ev.at
		k.fns[ev.fn](k, ev)
	}
}
