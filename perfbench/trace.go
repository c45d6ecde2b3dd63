package main

import (
	"sort"

	"coremap/internal/obs"
)

// Layers of one map's wall time, as the traced run splits it. Every span
// the program emits is charged to the layer of its name, minus the time
// its child spans cover; host operation time measured by benchHost is
// taken out of whichever span it fell in and charged to layerMachine.
const (
	layerMachine   = iota // inside the simulated machine (benchHost)
	layerCoremap          // coremap/map-machine self time
	layerStep1            // probe/map-cores: step 1
	layerStep2            // probe/run self: step 2, planner scoring, host stack
	layerEnumerate        // ilp/enumerate, driven by the planner
	layerLocate           // locate/reconstruct self time
	layerSolve            // ilp/solve
	layerOther            // any span name not listed above
	numLayers
)

var layerNames = [numLayers]string{
	"machine", "coremap", "probe.step1", "probe.step2_self",
	"plan.enumerate", "locate.self", "ilp.solve", "other",
}

var spanLayer = map[string]int{
	"coremap/map-machine": layerCoremap,
	"probe/map-cores":     layerStep1,
	"probe/run":           layerStep2,
	"ilp/enumerate":       layerEnumerate,
	"locate/reconstruct":  layerLocate,
	"ilp/solve":           layerSolve,
}

// node is one finished span with its interval in nanoseconds.
type node struct {
	name       string
	start, end int64
	children   []int
}

// buildTree turns span records into nodes and links each to its parent.
// A span is linked to its recorded parent when that parent's interval
// contains it; otherwise (a stage that kept a finished span's context
// and parents later work to it) to the shortest span that does. Spans
// contained by no other span are roots. Events are skipped. offset is
// added to every start, in nanoseconds.
func buildTree(recs []obs.SpanRecord, offset int64) (nodes []node, roots []int) {
	byID := make(map[int64]int, len(recs))
	for _, r := range recs {
		if r.Kind == "event" {
			continue
		}
		start := offset + r.StartUS*1000
		byID[r.ID] = len(nodes)
		nodes = append(nodes, node{name: r.Name, start: start, end: start + r.DurUS*1000})
	}
	// Span times are truncated to microseconds, so containment allows
	// one microsecond of slack at either end.
	const slack = 1000
	contains := func(p, c int) bool {
		return p != c && nodes[p].start-slack <= nodes[c].start && nodes[c].end <= nodes[p].end+slack &&
			nodes[p].end-nodes[p].start >= nodes[c].end-nodes[c].start
	}
	for _, r := range recs {
		c, ok := byID[r.ID]
		if !ok {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok || !contains(p, c) {
			p = -1
			for i := range nodes {
				if contains(i, c) && (p < 0 || nodes[i].end-nodes[i].start < nodes[p].end-nodes[p].start) {
					p = i
				}
			}
		}
		if p < 0 {
			roots = append(roots, c)
			continue
		}
		nodes[p].children = append(nodes[p].children, c)
	}
	return nodes, roots
}

// covered returns the length of the union of the given intervals clipped
// to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		s, e := max(v[0], cur), min(v[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a node's duration minus the part of its interval that its
// child spans cover.
func selfTime(nodes []node, i int) int64 {
	n := nodes[i]
	iv := make([][2]int64, len(n.children))
	for k, c := range n.children {
		iv[k] = [2]int64{nodes[c].start, nodes[c].end}
	}
	return n.end - n.start - covered(iv, n.start, n.end)
}

// splitLayers charges one map's wall time to layers. busyIn reports the
// host operation time inside an interval (nil: no host timing); host time
// inside a span, but not inside one of its children, is moved from the
// span's layer to layerMachine.
func splitLayers(nodes []node, busyIn func(start, end int64) int64) [numLayers]int64 {
	var out [numLayers]int64
	for i, n := range nodes {
		self := selfTime(nodes, i)
		if busyIn != nil {
			host := busyIn(n.start, n.end)
			for _, c := range n.children {
				host -= busyIn(nodes[c].start, nodes[c].end)
			}
			self -= host
			out[layerMachine] += host
		}
		layer, ok := spanLayer[n.name]
		if !ok {
			layer = layerOther
		}
		out[layer] += self
	}
	return out
}
