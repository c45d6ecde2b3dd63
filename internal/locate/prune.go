package locate

import (
	"sort"

	"coremap/internal/topo/meshroute"
)

// Observation-dominance pruning. The O(n²) ordered-pair sweep of the
// probe emits heavily overlapping facts: every tile between a source and
// sink observes *every* experiment crossing it, so the same "R_s is
// strictly above R_k" fact arrives once per sink behind k, and chains of
// vertical orderings arrive with all O(L²) pairwise shortcuts even though
// the L-1 consecutive links imply the rest. This file reads the
// meshroute.Encode facts of every observation as a difference-constraint
// graph (R_x - R_y ≥ gap), deduplicates parallel edges by keeping only
// the tightest gap, and performs a greedy transitive reduction: an edge
// is dropped when two kept edges through an intermediate node already
// imply it (difference constraints compose by adding gaps, so the drop is
// sound; processing edges in a fixed order against the currently-kept
// set makes the reduction deterministic and — by reverse induction over
// the drop sequence — keeps every dropped edge implied by the final kept
// set).
//
// Anchored facts carry the memory controller's coordinate as a constant,
// so they collapse to one variable bound per CHA (the tightest R_k ≤
// row-1 for up-ingress observers, R_k ≥ row+1 for down) and column fixes.
// The equality alignments (observer column = source column, observer row
// = sink row) are deduplicated to one constraint per variable pair.
// Horizontal records keep their per-path big-M guards (each path owns its
// NE/NW direction variables), but the sink's own source-side bounds are
// dropped when another observer on the path dominates them by
// composition (addHorz).
//
// The pruned and unpruned models are logically equivalent over the
// shared variables, and the row/column variables are created before any
// per-observation variable, so the solver's lexicographic tie-break
// yields byte-identical Map.Pos either way (pinned by TestPruneInvariant).

// prunePlan is the dominance-reduced fact system of an input.
type prunePlan struct {
	// facts is the reduced system in emission order: column equalities,
	// row equalities, anchored column fixes, anchored row lower bounds,
	// anchored row upper bounds, then row difference edges, each group
	// sorted by CHA.
	facts []meshroute.Fact
	// raw and kept count the facts before and after reduction
	// (duplicates included in raw).
	raw, kept int
}

// newPrunePlan encodes every observation and reduces the facts: trivial
// ones dropped, equalities deduplicated, anchored bounds tightened to one
// per CHA, difference edges deduplicated to the tightest gap and then
// transitively reduced.
func newPrunePlan(in Input) *prunePlan {
	pl := &prunePlan{}
	eqs := map[meshroute.Fact]bool{}
	lo := map[int]int{}       // R_v ≥ lo[v] (anchored down-ingress)
	hi := map[int]int{}       // R_v ≤ hi[v] (anchored up-ingress)
	edges := map[[2]int]int{} // R_x − R_y ≥ edges[{x, y}]
	var facts []meshroute.Fact
	for _, o := range in.Observations {
		facts, _ = meshroute.Encode(facts[:0], o, in.IMCPositions, false)
		pl.raw += len(facts)
		for _, f := range facts {
			switch {
			case f.Trivial():
			case f.Kind != meshroute.RowGE:
				if f.B != meshroute.Anchor && f.A > f.B {
					f.A, f.B = f.B, f.A
				}
				eqs[f] = true
			case f.A == meshroute.Anchor:
				if v, ok := hi[f.B]; !ok || f.K-f.Gap < v {
					hi[f.B] = f.K - f.Gap
				}
			case f.B == meshroute.Anchor:
				if v, ok := lo[f.A]; !ok || f.K+f.Gap > v {
					lo[f.A] = f.K + f.Gap
				}
			default:
				k := [2]int{f.A, f.B}
				if g, ok := edges[k]; !ok || f.Gap > g {
					edges[k] = f.Gap
				}
			}
		}
	}

	// Greedy dominance reduction over the difference edges: process in a
	// fixed order; drop an edge when two currently-kept edges through an
	// intermediate imply it. Kept-at-drop-time witnesses guarantee the
	// final kept set still implies every dropped edge.
	keys := make([][2]int, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		g := edges[k]
		for m := 0; m < in.NumCHA; m++ {
			if m == k[0] || m == k[1] {
				continue
			}
			g1, ok1 := edges[[2]int{k[0], m}]
			g2, ok2 := edges[[2]int{m, k[1]}]
			if ok1 && ok2 && g1+g2 >= g {
				delete(edges, k)
				break
			}
		}
	}

	// Flatten into one deterministic slice.
	for f := range eqs {
		pl.facts = append(pl.facts, f)
	}
	for v, val := range lo {
		pl.facts = append(pl.facts, meshroute.Fact{Kind: meshroute.RowGE, A: v, B: meshroute.Anchor, K: val})
	}
	for v, val := range hi {
		pl.facts = append(pl.facts, meshroute.Fact{Kind: meshroute.RowGE, A: meshroute.Anchor, B: v, K: val})
	}
	for k, g := range edges {
		pl.facts = append(pl.facts, meshroute.Fact{Kind: meshroute.RowGE, A: k[0], B: k[1], Gap: g})
	}
	sort.Slice(pl.facts, func(i, j int) bool {
		a, b := pl.facts[i], pl.facts[j]
		if ga, gb := group(a), group(b); ga != gb {
			return ga < gb
		}
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.K < b.K
	})
	pl.kept = len(pl.facts)
	return pl
}

// group is a reduced fact's position in the emission order.
func group(f meshroute.Fact) int {
	switch {
	case f.Kind == meshroute.ColEq && f.B != meshroute.Anchor:
		return 0
	case f.Kind == meshroute.RowEq:
		return 1
	case f.Kind == meshroute.ColEq:
		return 2
	case f.B == meshroute.Anchor:
		return 3
	case f.A == meshroute.Anchor:
		return 4
	}
	return 5
}

// addPruned emits the dominance-reduced fact system once, then each
// observation's horizontal record with the sink-bound skip.
func (b *builder) addPruned(paperBounds bool) {
	for _, f := range newPrunePlan(b.in).facts {
		f.AddTo(b.m, b.r, b.c)
	}
	for p, o := range b.in.Observations {
		var h meshroute.Horz
		b.facts, h = meshroute.Encode(b.facts[:0], o, b.in.IMCPositions, paperBounds)
		b.addHorz(p, &h, true)
	}
}
