// Package meshroute is the mesh backend's routing/observation model: the
// exact predictor for what a Y-then-X dimension-order-routed flow charges
// at each tile. Classify is the per-tile specification; Predictor.Route
// walks the same route hop by hop, which is what the planner consumes.
// The Channel byte values are unchanged from the in-package classifier
// the planner once carried, which keeps its predictKey byte keys — and
// therefore the planned surveys — byte-identical to the pre-refactor
// pipeline.
//
// Encode (encode.go) is the mesh observation semantics in one place: the
// linear facts and the horizontal-direction record an Observation
// implies about the placement. locate's ILP, the planner's enumeration
// model and the planner's survivor filter all derive from it.
package meshroute

import (
	"coremap/internal/mesh"
	"coremap/internal/topo"
)

// Classify reports which counter the tile at t charges for a flow routed
// src → dst, or topo.ChanNone when t is not a receiving tile of the
// route. The mesh routes traffic dimension-order, Y then X: a flow
// travels vertically in src's column down to dst's row, then
// horizontally in dst's row to dst's column, and every *receiving* tile
// on that route charges the matching ring ingress counter (the corner
// tile at (dst.Row, src.Col) is charged vertical — it receives from the
// vertical ring).
func Classify(src, dst, t mesh.Coord) topo.Channel {
	if t.Col == src.Col {
		// Vertical segment in src's column, receiving tiles only (src
		// itself transmits, it never receives). The corner tile at
		// dst.Row is charged here, not on the horizontal segment.
		if dst.Row < src.Row && t.Row >= dst.Row && t.Row < src.Row {
			return topo.ChanUp
		}
		if dst.Row > src.Row && t.Row > src.Row && t.Row <= dst.Row {
			return topo.ChanDown
		}
		return topo.ChanNone
	}
	if t.Row != dst.Row {
		return topo.ChanNone
	}
	// Horizontal segment in dst's row, strictly past the turn column.
	if dst.Col > src.Col && t.Col > src.Col && t.Col <= dst.Col {
		return topo.ChanHorz
	}
	if dst.Col < src.Col && t.Col < src.Col && t.Col >= dst.Col {
		return topo.ChanHorz
	}
	return topo.ChanNone
}

// Predictor is the stateless mesh predictor handed to the adaptive
// planner (the default when plan.Options.Predictor is nil).
type Predictor struct{}

// Route implements topo.Predictor: it walks the Y-then-X route of
// src → dst and appends every receiving tile with the counter Classify
// assigns it — the vertical segment in src's column from the tile after
// src to the corner at dst's row, then the horizontal segment in dst's
// row from the column after the corner to dst. TestPredictorMatchesClassify
// pins the walk to Classify on every tile of the catalog grids.
func (Predictor) Route(hops []topo.Hop, src, dst mesh.Coord) []topo.Hop {
	for r := src.Row - 1; r >= dst.Row; r-- {
		hops = append(hops, topo.Hop{Tile: mesh.Coord{Row: r, Col: src.Col}, Chan: topo.ChanUp})
	}
	for r := src.Row + 1; r <= dst.Row; r++ {
		hops = append(hops, topo.Hop{Tile: mesh.Coord{Row: r, Col: src.Col}, Chan: topo.ChanDown})
	}
	for c := src.Col + 1; c <= dst.Col; c++ {
		hops = append(hops, topo.Hop{Tile: mesh.Coord{Row: dst.Row, Col: c}, Chan: topo.ChanHorz})
	}
	for c := src.Col - 1; c >= dst.Col; c-- {
		hops = append(hops, topo.Hop{Tile: mesh.Coord{Row: dst.Row, Col: c}, Chan: topo.ChanHorz})
	}
	return hops
}
