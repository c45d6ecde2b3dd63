package main

import (
	"sort"
	"time"

	"coremap/internal/hostif"
	"coremap/internal/msr"
)

// Host operation kinds, in the order the per-layer metrics report them.
const (
	opRdmsr = iota
	opWrmsr
	opLoad
	opTimedLoad
	opStore
	opFlush
	numOps
)

var opNames = [numOps]string{"rdmsr", "wrmsr", "load", "timed_load", "store", "flush"}

// benchHost is the benchmark's own decorator around the Host handed to
// coremap.MapMachine. It always counts operations by kind. When timed, it
// also records how long each operation spent below it, as a timeline of
// (operation end, cumulative busy time) pairs, so a traced run can tell
// how much of any span's interval the machine was busy. It never alters
// arguments, results or errors.
type benchHost struct {
	h     hostif.Host
	ops   [numOps]int64
	timed bool

	// Timeline of the current map (timed hosts only): ends[i] is the end
	// of operation i and cum[i] the busy time through it, both in
	// nanoseconds since base. Buffers are reused across maps.
	base time.Time
	busy int64
	ends []int64
	cum  []int64
}

func newBenchHost(h hostif.Host, timed bool) *benchHost {
	return &benchHost{h: h, timed: timed}
}

// resetTimeline starts a new map's timeline at base.
func (b *benchHost) resetTimeline(base time.Time) {
	b.base = base
	b.busy = 0
	b.ends = b.ends[:0]
	b.cum = b.cum[:0]
}

// totalOps returns the number of operations counted so far.
func (b *benchHost) totalOps() int64 {
	var n int64
	for _, v := range b.ops {
		n += v
	}
	return n
}

// busyAt returns the busy time of operations that ended at or before t
// (nanoseconds since base).
func (b *benchHost) busyAt(t int64) int64 {
	i := sort.Search(len(b.ends), func(i int) bool { return b.ends[i] > t })
	if i == 0 {
		return 0
	}
	return b.cum[i-1]
}

// busyIn returns the busy time of operations inside [start, end].
func (b *benchHost) busyIn(start, end int64) int64 {
	return b.busyAt(end) - b.busyAt(start)
}

// begin counts one operation and, on a timed host, returns its start.
func (b *benchHost) begin(op int) int64 {
	b.ops[op]++
	if !b.timed {
		return 0
	}
	return int64(time.Since(b.base))
}

// done closes the timing of an operation begun at start.
func (b *benchHost) done(start int64) {
	if !b.timed {
		return
	}
	end := int64(time.Since(b.base))
	b.busy += end - start
	b.ends = append(b.ends, end)
	b.cum = append(b.cum, b.busy)
}

func (b *benchHost) NumCPUs() int { return b.h.NumCPUs() }

func (b *benchHost) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	t := b.begin(opRdmsr)
	v, err := b.h.ReadMSR(cpu, a)
	b.done(t)
	return v, err
}

func (b *benchHost) WriteMSR(cpu int, a msr.Addr, v uint64) error {
	t := b.begin(opWrmsr)
	err := b.h.WriteMSR(cpu, a, v)
	b.done(t)
	return err
}

func (b *benchHost) Load(cpu int, addr uint64) error {
	t := b.begin(opLoad)
	err := b.h.Load(cpu, addr)
	b.done(t)
	return err
}

func (b *benchHost) TimedLoad(cpu int, addr uint64) (uint64, error) {
	t := b.begin(opTimedLoad)
	v, err := b.h.TimedLoad(cpu, addr)
	b.done(t)
	return v, err
}

func (b *benchHost) Store(cpu int, addr uint64) error {
	t := b.begin(opStore)
	err := b.h.Store(cpu, addr)
	b.done(t)
	return err
}

func (b *benchHost) Flush(cpu int, addr uint64) error {
	t := b.begin(opFlush)
	err := b.h.Flush(cpu, addr)
	b.done(t)
	return err
}

var _ hostif.Host = (*benchHost)(nil)
