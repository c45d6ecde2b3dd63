package meshroute

import (
	"fmt"

	"coremap/internal/ilp"
	"coremap/internal/mesh"
)

// Observation is the monitored result of one inter-tile traffic
// experiment: the CHAs whose ingress counters crossed the threshold,
// classified by channel. Horizontal left/right arrivals are merged — the
// odd-column tile mirroring makes the physical direction unknowable.
type Observation struct {
	// SrcCHA and DstCHA identify the experiment endpoints by CHA ID.
	// For memory-anchored observations SrcCHA is unused (-1).
	SrcCHA, DstCHA int
	// Anchored marks a memory-traffic observation whose source is the
	// integrated memory controller SrcIMC — a tile at a publicly known
	// die position, which pins the reconstruction in absolute
	// coordinates.
	Anchored bool
	SrcIMC   int
	// Up, Down and Horz list the CHA IDs that observed ingress of each
	// class, in ascending order.
	Up, Down, Horz []int
}

// Check reports the first reference of o outside the problem: a
// destination, non-anchored source or observer CHA outside [0, numCHA),
// or an anchored source IMC outside [0, numIMC).
func (o Observation) Check(numCHA, numIMC int) error {
	if o.Anchored {
		if o.SrcIMC < 0 || o.SrcIMC >= numIMC {
			return fmt.Errorf("source IMC %d out of range (%d positions known)", o.SrcIMC, numIMC)
		}
	} else if o.SrcCHA < 0 || o.SrcCHA >= numCHA {
		return fmt.Errorf("source CHA %d out of range (%d CHAs)", o.SrcCHA, numCHA)
	}
	if o.DstCHA < 0 || o.DstCHA >= numCHA {
		return fmt.Errorf("destination CHA %d out of range (%d CHAs)", o.DstCHA, numCHA)
	}
	for _, list := range [][]int{o.Up, o.Down, o.Horz} {
		for _, k := range list {
			if k < 0 || k >= numCHA {
				return fmt.Errorf("observer CHA %d out of range (%d CHAs)", k, numCHA)
			}
		}
	}
	return nil
}

// Anchor stands for an anchored observation's memory-controller source
// in a Fact or Horz: a tile at a known die position rather than a CHA.
const Anchor = -1

// FactKind is the shape of a Fact.
type FactKind uint8

const (
	// RowGE is R_A − R_B ≥ Gap.
	RowGE FactKind = iota
	// ColEq is C_A = C_B.
	ColEq
	// RowEq is R_A = R_B.
	RowEq
)

// Fact is one linear difference fact an observation implies about the
// row (R) or column (C) coordinates of two CHAs. Either side may be
// Anchor, whose coordinate on the fact's axis is the constant K.
type Fact struct {
	Kind FactKind
	A, B int
	Gap  int
	K    int
}

// Horz is the horizontal-direction disjunction of one observation. The
// flow turned into the sink's row and then ran east or west, and the
// odd-column mirroring hides which: either every observer lies at least
// Gap columns east of the source and, the sink aside, strictly west of
// the sink, or the mirror image holds. The observers' row alignment with
// the sink is a Fact, not part of the record.
type Horz struct {
	// Src is the source CHA, or Anchor with the die column SrcCol.
	Src, SrcCol int
	Dst         int
	// Obs lists the horizontal observers; empty when the observation
	// saw no horizontal ingress.
	Obs []int
	// Gap is 1 for the strict dimension-order form (the turn tile is
	// charged vertical) and 0 for the paper's printed inequalities.
	Gap int
}

// Encode appends the facts observation o implies to facts, in observer
// order, and returns them with o's horizontal record. imcs resolves an
// anchored source (the caller has checked o against it). paperBounds
// selects the paper's looser horizontal source bound. Every consumer of
// the mesh observation semantics — locate's ILP, the planner's
// enumeration model and its survivor filter — derives from this one
// description:
//
//   - an up-ingress observer k shares the source's column and sits
//     strictly below the source and not above the sink: C_k = C_s,
//     R_s − R_k ≥ 1, R_k − R_e ≥ 0 (mirrored for down-ingress);
//   - a horizontal observer shares the sink's row: R_k = R_e;
//   - the horizontal observers' columns are the Horz disjunction.
func Encode(facts []Fact, o Observation, imcs []mesh.Coord, paperBounds bool) ([]Fact, Horz) {
	s, e := o.SrcCHA, o.DstCHA
	var src mesh.Coord
	if o.Anchored {
		s, src = Anchor, imcs[o.SrcIMC]
	}
	for _, k := range o.Up {
		facts = append(facts,
			Fact{Kind: ColEq, A: k, B: s, K: src.Col},
			Fact{Kind: RowGE, A: s, B: k, Gap: 1, K: src.Row},
			Fact{Kind: RowGE, A: k, B: e})
	}
	for _, k := range o.Down {
		facts = append(facts,
			Fact{Kind: ColEq, A: k, B: s, K: src.Col},
			Fact{Kind: RowGE, A: k, B: s, Gap: 1, K: src.Row},
			Fact{Kind: RowGE, A: e, B: k})
	}
	for _, k := range o.Horz {
		facts = append(facts, Fact{Kind: RowEq, A: k, B: e})
	}
	h := Horz{Src: s, SrcCol: src.Col, Dst: e, Obs: o.Horz, Gap: 1}
	if paperBounds {
		h.Gap = 0
	}
	return facts, h
}

// Holds reports whether placement pos satisfies every fact and the
// horizontal record: the evaluator of Encode's description.
func Holds(facts []Fact, h *Horz, pos []mesh.Coord) bool {
	for _, f := range facts {
		if !f.Holds(pos) {
			return false
		}
	}
	return h.Holds(pos)
}

// at is the coordinate of ref on f's axis under pos.
func (f Fact) at(pos []mesh.Coord, ref int) int {
	switch {
	case ref == Anchor:
		return f.K
	case f.Kind == ColEq:
		return pos[ref].Col
	}
	return pos[ref].Row
}

// Holds reports whether placement pos satisfies f.
func (f Fact) Holds(pos []mesh.Coord) bool {
	a, b := f.at(pos, f.A), f.at(pos, f.B)
	if f.Kind == RowGE {
		return a-b >= f.Gap
	}
	return a == b
}

// Trivial reports whether f holds under every placement, as the
// sink-side fact of an observation whose sink is its own observer does.
func (f Fact) Trivial() bool {
	return f.A == f.B && (f.Kind != RowGE || f.Gap <= 0)
}

// factLabels names each kind's rows in ilp diagnostics.
var factLabels = [...]string{RowGE: "row>=", ColEq: "col=", RowEq: "row="}

// AddTo adds f to m as one row over the per-CHA row and column variables
// r and c; a trivial fact adds none. An Anchor side folds into the
// right-hand side, leaving a single-variable row.
func (f Fact) AddTo(m *ilp.Model, r, c []ilp.Var) {
	if f.Trivial() {
		return
	}
	label := factLabels[f.Kind]
	x, a, b, k := r, f.A, f.B, int64(f.K)
	if f.Kind == ColEq {
		x = c
	}
	if f.Kind != RowGE {
		if a == Anchor {
			a, b = b, a
		}
		if b == Anchor {
			m.AddEq(label, []ilp.Term{ilp.T(1, x[a])}, k)
		} else {
			m.AddEq(label, []ilp.Term{ilp.T(1, x[a]), ilp.T(-1, x[b])}, 0)
		}
		return
	}
	gap := int64(f.Gap)
	switch {
	case a == Anchor:
		m.AddLE(label, []ilp.Term{ilp.T(1, x[b])}, k-gap)
	case b == Anchor:
		m.AddGE(label, []ilp.Term{ilp.T(1, x[a])}, k+gap)
	default:
		m.AddGE(label, []ilp.Term{ilp.T(1, x[a]), ilp.T(-1, x[b])}, gap)
	}
}

// srcCol is the source's column under pos.
func (h *Horz) srcCol(pos []mesh.Coord) int {
	if h.Src == Anchor {
		return h.SrcCol
	}
	return pos[h.Src].Col
}

// Holds reports whether one direction of travel explains every
// horizontal observer's column under pos (true when there are none).
func (h *Horz) Holds(pos []mesh.Coord) bool {
	src, dst := h.srcCol(pos), pos[h.Dst].Col
	east, west := true, true
	for _, k := range h.Obs {
		c := pos[k].Col
		east = east && c >= src+h.Gap && (k == h.Dst || c < dst)
		west = west && c <= src-h.Gap && (k == h.Dst || c > dst)
		if !east && !west {
			return false
		}
	}
	return true
}

// Eastbound reports whether the sink lies east of the source under pos.
// On a placement h holds on, the eastbound bounds then hold, and
// otherwise the westbound ones: a warm start's direction for the path.
func (h *Horz) Eastbound(pos []mesh.Coord) bool {
	return pos[h.Dst].Col > h.srcCol(pos)
}
