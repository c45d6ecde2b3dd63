package plan

// The enumeration model. locate's full model carries per-path NE/NW
// direction binaries, one-hot channeling, occupancy indicators and a
// packing objective — none of which the planner needs: enumeration asks
// "which placements are possible", and multiplying every placement by
// its auxiliary-binary completions would wreck the projection walk. So
// the planner lowers only the linear facts of meshroute.Encode to rows
// over the 2n row/column position variables, and pushes the two
// non-linear conditions — all-distinct tile occupancy and each
// observation's horizontal-direction record — into ilp.Enumerate's
// Prune/Accept hooks, where they are cheap to test on concrete
// coordinates.

import (
	"coremap/internal/ilp"
	"coremap/internal/mesh"
	"coremap/internal/topo/meshroute"
)

// buildModel translates the observations collected so far into an ILP
// over the CHA position variables. It returns the model, the projection
// (r0, c0, r1, c1, … — decode with coordAt), and the branch order
// (c0, r0, c1, r1, … — columns first, mirroring locate.branchOrder so
// the enumeration walks the tree in the solver's canonical shape). As a
// side effect it rebuilds pl.horz for the Accept/Prune closures.
func (pl *Planner) buildModel() (m *ilp.Model, project, branch []ilp.Var) {
	m = ilp.NewModel()
	n := pl.numCHA
	r := make([]ilp.Var, n)
	c := make([]ilp.Var, n)
	project = make([]ilp.Var, 0, 2*n)
	branch = make([]ilp.Var, 0, 2*n)
	for k := 0; k < n; k++ {
		r[k] = m.NewVar("r", 0, int64(pl.opts.Rows-1))
		c[k] = m.NewVar("c", 0, int64(pl.opts.Cols-1))
		project = append(project, r[k], c[k])
		branch = append(branch, c[k], r[k])
	}
	pl.horz = pl.horz[:0]
	for _, o := range pl.observations {
		var h meshroute.Horz
		pl.facts, h = meshroute.Encode(pl.facts[:0], o, pl.opts.IMCPositions, pl.opts.PaperExactBounds)
		for _, f := range pl.facts {
			f.AddTo(m, r, c)
		}
		if len(h.Obs) > 0 {
			pl.horz = append(pl.horz, h)
		}
	}
	return m, project, branch
}

// coordAt decodes CHA k from an enumeration projection.
func coordAt(proj []int64, k int) mesh.Coord {
	return mesh.Coord{Row: int(proj[2*k]), Col: int(proj[2*k+1])}
}

// accept is the leaf filter for ilp.Enumerate: given a fully fixed
// projection, enforce the conditions the lean model omits — every CHA on
// its own tile, and every observation's horizontal observers reachable
// in a single direction of travel. CHAs may share a tile with a memory
// controller; the all-distinct condition is CHA-vs-CHA only, matching
// locate's lazy separation.
func (pl *Planner) accept(proj []int64) bool {
	coords := pl.projCoords
	for k := 0; k < pl.numCHA; k++ {
		coords[k] = coordAt(proj, k)
	}
	pl.cellEpoch++
	for k := 0; k < pl.numCHA; k++ {
		cell := coords[k].Row*pl.opts.Cols + coords[k].Col
		if pl.cellMark[cell] == pl.cellEpoch {
			return false
		}
		pl.cellMark[cell] = pl.cellEpoch
	}
	for i := range pl.horz {
		if !pl.horz[i].Holds(coords) {
			return false
		}
	}
	return true
}

// prune is the subtree filter for ilp.Enumerate, called at every search
// node with the partially fixed projection. It applies the same two
// conditions as accept, restricted to what is already decided — two
// fully placed CHAs on the same tile, or a horizontal disjunction whose
// participants are all placed and satisfiable in neither direction —
// so conflicting subtrees are cut long before a full placement is
// assembled. Both tests are monotone in the fixed set, as Prune's
// contract requires: a violation can never be repaired by fixing more
// variables.
func (pl *Planner) prune(vals []int64, fixed []bool) bool {
	coords := pl.projCoords
	placed := pl.coordFixed
	pl.cellEpoch++
	for k := 0; k < pl.numCHA; k++ {
		placed[k] = fixed[2*k] && fixed[2*k+1]
		if !placed[k] {
			continue
		}
		coords[k] = coordAt(vals, k)
		cell := coords[k].Row*pl.opts.Cols + coords[k].Col
		if pl.cellMark[cell] == pl.cellEpoch {
			return false
		}
		pl.cellMark[cell] = pl.cellEpoch
	}
horz:
	for i := range pl.horz {
		h := &pl.horz[i]
		if (h.Src != meshroute.Anchor && !placed[h.Src]) || !placed[h.Dst] {
			continue
		}
		for _, k := range h.Obs {
			if !placed[k] {
				continue horz
			}
		}
		if !h.Holds(coords) {
			return false
		}
	}
	return true
}
