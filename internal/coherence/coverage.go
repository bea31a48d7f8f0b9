package coherence

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// The pseudo-events: the core-side operations every controller class
// records. They are the first three events of every Table, so each class
// records them by these indices.
const (
	EvLoad = iota
	EvStore
	EvReplacement
)

var pseudoEvents = [...]string{EvLoad: "Load", EvStore: "Store", EvReplacement: "Replacement"}

// Table is the (state, event) table of one controller class: its state
// and event names, indexed densely, and the pairs declared possible. A
// class builds its table once, and the Coverage of every instance of the
// class shares it read-only.
type Table struct {
	name     string
	states   []string
	events   []string
	stateIx  map[string]int
	eventIx  map[string]int
	msgEv    [NumMsgTypes]int16 // event index of each message type; -1 if none
	declared []bool             // by pair index state*len(events)+event
	possible int
}

// NewTable returns the table of controller class name over the given
// states, indexed in order, and the pseudo-events. Declaring a pair adds
// its event to the table.
func NewTable(name string, states ...string) *Table {
	t := &Table{name: name, stateIx: map[string]int{}, eventIx: map[string]int{}}
	for i := range t.msgEv {
		t.msgEv[i] = -1
	}
	for _, s := range states {
		t.addState(s)
	}
	for _, e := range pseudoEvents {
		t.addEvent(e)
	}
	t.declared = make([]bool, len(t.states)*len(t.events))
	return t
}

// Declare marks (state, event) as a possible transition. It is for
// building a class table, before any Coverage shares it.
func (t *Table) Declare(state, event string) {
	i, _ := t.pair(state, event)
	t.declare(i)
}

// DeclareAll declares the cross product states x events.
func (t *Table) DeclareAll(states, events []string) {
	for _, s := range states {
		for _, e := range events {
			t.Declare(s, e)
		}
	}
}

// New returns an empty Coverage over t.
func (t *Table) New() *Coverage {
	return &Coverage{tab: t, visits: make([]uint64, len(t.declared))}
}

func (t *Table) index(s, e int) int { return s*len(t.events) + e }

func (t *Table) declare(i int) {
	if !t.declared[i] {
		t.declared[i] = true
		t.possible++
	}
}

func (t *Table) pairName(i int) string {
	return t.states[i/len(t.events)] + "/" + t.events[i%len(t.events)]
}

// pair returns the index of (state, event), adding either name t lacks,
// and the number of events t had before.
func (t *Table) pair(state, event string) (i, oldEvents int) {
	oldEvents = len(t.events)
	s, okS := t.stateIx[state]
	e, okE := t.eventIx[event]
	if !okS {
		s = t.addState(state)
	}
	if !okE {
		e = t.addEvent(event)
	}
	if !okS || !okE {
		t.declared = regrid(t.declared, oldEvents, len(t.states), len(t.events))
	}
	return t.index(s, e), oldEvents
}

func (t *Table) addState(state string) int {
	t.stateIx[state] = len(t.states)
	t.states = append(t.states, state)
	return len(t.states) - 1
}

func (t *Table) addEvent(event string) int {
	e := len(t.events)
	t.eventIx[event] = e
	t.events = append(t.events, event)
	for m, name := range msgTypeNames {
		if name == event {
			t.msgEv[m] = int16(e)
		}
	}
	return e
}

// regrid lays a per-pair slice with oldEvents events per state out again
// for a table grown to states x events.
func regrid[T any](old []T, oldEvents, states, events int) []T {
	out := make([]T, states*events)
	for s := 0; s*oldEvents < len(old); s++ {
		copy(out[s*events:], old[s*oldEvents:(s+1)*oldEvents])
	}
	return out
}

// Counter is a per-state transition counter; *obs.Counter is one.
type Counter interface{ Inc() }

// Coverage records which (state, event) pairs a controller has exercised,
// reproducing the coverage accounting of the paper's stress test (§4.1):
// "we counted the state/event pairs that the random tester visited at each
// cache controller and compared it with the number that we believe are
// possible". Each controller class declares its reachable pairs once, in
// its Table; Record marks a visit; visiting an undeclared pair is a
// protocol bug surfaced via the Unexpected list.
//
// A Coverage holds only its visit counts, one per pair of its class
// table, so Record is an array increment. Names are built only on cold
// paths: an undeclared pair's name goes to Unexpected, and Missing,
// Snapshot, Summary and Merge across tables work by name. A pair outside
// the table (an event the class never declared, or any pair of a
// Coverage from NewCoverage) gives the Coverage a private copy of the
// table that grows by name.
type Coverage struct {
	tab     *Table
	private bool     // tab belongs to this Coverage alone and may grow
	visits  []uint64 // by pair index of tab
	// Unexpected lists visited pairs that were never declared possible.
	Unexpected []string
	// counter and byState count transitions per originating state (see
	// CountStates); byState caches each state's counter by index.
	counter func(state string) Counter
	byState []Counter
}

// NewCoverage returns an empty recorder for the named controller class,
// with a table of its own that grows as pairs are declared or recorded
// by name.
func NewCoverage(name string) *Coverage {
	return &Coverage{tab: NewTable(name), private: true}
}

// Declare marks (state, event) as a possible transition.
func (c *Coverage) Declare(state, event string) {
	if i := c.pair(state, event); !c.tab.declared[i] {
		c.own().declare(i)
	}
}

// CountStates makes every Record also increment counter(S), where S is
// the originating (pre-transition) state. counter is called once per
// state, on that state's first visit, so a state never visited creates
// no counter.
func (c *Coverage) CountStates(counter func(state string) Counter) {
	c.counter = counter
	c.byState = make([]Counter, len(c.tab.states))
}

// Record notes a visit to (state s, event e), both indices into the
// class table.
func (c *Coverage) Record(s, e int) {
	t := c.tab
	i := t.index(s, e)
	c.visits[i]++
	if !t.declared[i] && t.possible > 0 {
		c.Unexpected = append(c.Unexpected, t.pairName(i))
	}
	if c.byState != nil {
		k := c.byState[s]
		if k == nil {
			k = c.counter(t.states[s])
			c.byState[s] = k
		}
		k.Inc()
	}
}

// RecordMsg notes a visit to (state s, the event of message type m).
func (c *Coverage) RecordMsg(s int, m MsgType) {
	if uint(m) < uint(NumMsgTypes) {
		if e := c.tab.msgEv[m]; e >= 0 {
			c.Record(s, int(e))
			return
		}
	}
	c.RecordName(c.tab.states[s], m.String())
}

// RecordName notes a visit to (state, event) by name: the cold path for
// a state or event that may be outside the class table.
func (c *Coverage) RecordName(state, event string) {
	i := c.pair(state, event)
	n := len(c.tab.events)
	c.Record(i/n, i%n)
}

// pair returns the index of (state, event), first adding either name
// the table lacks to c's private copy of it.
func (c *Coverage) pair(state, event string) int {
	if s, ok := c.tab.stateIx[state]; ok {
		if e, ok := c.tab.eventIx[event]; ok {
			return c.tab.index(s, e)
		}
	}
	t := c.own()
	states := len(t.states)
	i, oldEvents := t.pair(state, event)
	c.visits = regrid(c.visits, oldEvents, len(t.states), len(t.events))
	if c.byState != nil {
		c.byState = append(c.byState, make([]Counter, len(t.states)-states)...)
	}
	return i
}

// own gives c a private copy of its table, unless it has one already.
func (c *Coverage) own() *Table {
	if !c.private {
		t := *c.tab
		t.states = slices.Clone(t.states)
		t.events = slices.Clone(t.events)
		t.stateIx = maps.Clone(t.stateIx)
		t.eventIx = maps.Clone(t.eventIx)
		t.declared = slices.Clone(t.declared)
		c.tab, c.private = &t, true
	}
	return c.tab
}

// Name returns the controller class name.
func (c *Coverage) Name() string { return c.tab.name }

// Possible returns the number of declared pairs.
func (c *Coverage) Possible() int { return c.tab.possible }

// Visited returns the number of distinct pairs seen.
func (c *Coverage) Visited() int {
	n := 0
	for _, v := range c.visits {
		if v > 0 {
			n++
		}
	}
	return n
}

// Visits returns the total transition count.
func (c *Coverage) Visits() uint64 {
	var n uint64
	for _, v := range c.visits {
		n += v
	}
	return n
}

// Missing returns declared pairs never visited, sorted.
func (c *Coverage) Missing() []string {
	var out []string
	for i, v := range c.visits {
		if c.tab.declared[i] && v == 0 {
			out = append(out, c.tab.pairName(i))
		}
	}
	sort.Strings(out)
	return out
}

// Merge folds other's visit counts into c (same controller class running
// as multiple instances, or across runs or campaign shards). Declared
// pairs are unioned, so merging into a bare NewCoverage preserves the
// class's declaration table. Visit counts add and declared/visited sets
// union, making Merge commutative and associative up to the order of the
// Unexpected list — aggregators that need byte-identical reports (the
// campaign runner) must merge in a deterministic shard order. Coverages
// sharing one table merge by index; others merge by name.
func (c *Coverage) Merge(other *Coverage) {
	if other.tab == c.tab {
		for i, v := range other.visits {
			c.visits[i] += v
		}
	} else {
		ot := other.tab
		for i, v := range other.visits {
			if !ot.declared[i] && v == 0 {
				continue
			}
			state, event := ot.states[i/len(ot.events)], ot.events[i%len(ot.events)]
			if ot.declared[i] {
				c.Declare(state, event)
			}
			c.visits[c.pair(state, event)] += v
		}
	}
	c.Unexpected = append(c.Unexpected, other.Unexpected...)
}

// Snapshot returns a copy of the visit counts keyed by "state/event",
// the canonical form used by aggregation tests to compare merge results.
func (c *Coverage) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for i, v := range c.visits {
		if v > 0 {
			out[c.tab.pairName(i)] = v
		}
	}
	return out
}

// Summary renders a one-line coverage report.
func (c *Coverage) Summary() string {
	if c.Possible() == 0 {
		return fmt.Sprintf("%-14s %6d pairs visited (%d visits)", c.Name(), c.Visited(), c.Visits())
	}
	return fmt.Sprintf("%-14s %4d/%-4d pairs (%5.1f%%), %d visits, %d unexpected",
		c.Name(), c.Visited(), c.Possible(),
		100*float64(c.Visited())/float64(c.Possible()), c.Visits(), len(c.Unexpected))
}
