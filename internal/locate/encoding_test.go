package locate

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"coremap/internal/cmerr"
	"coremap/internal/ilp"
	"coremap/internal/mesh"
	"coremap/internal/probe"
	"coremap/internal/topo"
	"coremap/internal/topo/meshroute"
)

// TestObservationRefsRejected: an observation that references a CHA or
// IMC outside the problem must end in a Permanent error naming the
// observation, from Reconstruct and from Validate alike — never a panic
// or a map.
func TestObservationRefsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		obs  probe.Observation
	}{
		{"horizontal observer", probe.Observation{SrcCHA: 0, DstCHA: 1, Horz: []int{9}}},
		{"up observer", probe.Observation{SrcCHA: 0, DstCHA: 1, Up: []int{7}}},
		{"down observer", probe.Observation{SrcCHA: 0, DstCHA: 1, Down: []int{-1}}},
		{"destination without observers", probe.Observation{SrcCHA: 0, DstCHA: 5}},
		{"source", probe.Observation{SrcCHA: 2, DstCHA: 0, Up: []int{0}}},
		{"anchored IMC", probe.Observation{SrcCHA: -1, DstCHA: 0, Anchored: true, SrcIMC: 1, Down: []int{0}}},
	} {
		in := Input{NumCHA: 2, Rows: 3, Cols: 3, IMCPositions: []mesh.Coord{{Row: 0, Col: 0}},
			Observations: []probe.Observation{{SrcCHA: 1, DstCHA: 0}, tc.obs}}
		pos := []mesh.Coord{{Row: 1, Col: 1}, {Row: 2, Col: 1}}
		for _, call := range []struct {
			name string
			run  func() error
		}{
			{"Reconstruct", func() error {
				_, err := Reconstruct(context.Background(), in, Options{Workers: 1})
				return err
			}},
			{"Validate", func() error { return Validate(in, pos) }},
		} {
			err := noPanic(t, call.run)
			if !errors.Is(err, cmerr.Permanent) || !strings.Contains(err.Error(), "observation 1") {
				t.Errorf("%s: %s: err = %v, want a Permanent error naming observation 1", tc.name, call.name, err)
			}
		}
	}
}

// noPanic runs f, turning a panic into a test error.
func noPanic(t *testing.T, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("panicked: %v", r)
			err = nil
		}
	}()
	return f()
}

// encodingHolds evaluates every observation's shared encoding on pos.
func encodingHolds(in Input, pos []mesh.Coord, paperBounds bool) bool {
	var facts []meshroute.Fact
	for _, o := range in.Observations {
		var h meshroute.Horz
		facts, h = meshroute.Encode(facts[:0], o, in.IMCPositions, paperBounds)
		if !meshroute.Holds(facts, &h, pos) {
			return false
		}
	}
	return true
}

// rowsAdmit reports whether some direction of each horizontal path —
// east (NE=0, NW=1) or west — makes the built model's rows accept
// placement q.
func rowsAdmit(b *builder, q []mesh.Coord) bool {
	vals := make([]int64, b.m.NumVars())
	for i, p := range q {
		vals[b.r[i]], vals[b.c[i]] = int64(p.Row), int64(p.Col)
	}
	for mask := 0; mask < 1<<len(b.dirs); mask++ {
		for i, d := range b.dirs {
			west := int64(mask >> i & 1)
			vals[d.ne], vals[d.nw] = west, 1-west
		}
		if ilp.CheckFeasible(b.m, vals) == nil {
			return true
		}
	}
	return false
}

// drawEncodingInput draws a rows×cols grid with nIMC memory controllers
// on its edge columns, an all-distinct true placement of n CHAs, and up
// to flows observations built from meshroute.Classify on that placement:
// CHA pairs and, when there are IMCs, as many memory-anchored flows. At
// most 10 observations have horizontal observers, which bounds
// rowsAdmit's direction search.
func drawEncodingInput(rng *rand.Rand, rows, cols, n, nIMC, flows int) (Input, []mesh.Coord) {
	in := Input{NumCHA: n, Rows: rows, Cols: cols}
	truth := drawPlacement(rng, rows, cols, n)
	for i := 0; i < nIMC; i++ {
		in.IMCPositions = append(in.IMCPositions, mesh.Coord{Row: rng.Intn(rows), Col: rng.Intn(2) * (cols - 1)})
	}
	paths := 0
	for f := 0; f < flows; f++ {
		o := probe.Observation{SrcCHA: rng.Intn(n), DstCHA: rng.Intn(n)}
		if nIMC > 0 && (n < 2 || rng.Intn(2) == 0) {
			o.SrcCHA, o.Anchored, o.SrcIMC = -1, true, rng.Intn(nIMC)
		} else if o.SrcCHA == o.DstCHA {
			continue
		}
		var src mesh.Coord
		if o.Anchored {
			src = in.IMCPositions[o.SrcIMC]
		} else {
			src = truth[o.SrcCHA]
		}
		for k, t := range truth {
			switch meshroute.Classify(src, truth[o.DstCHA], t) {
			case topo.ChanUp:
				o.Up = append(o.Up, k)
			case topo.ChanDown:
				o.Down = append(o.Down, k)
			case topo.ChanHorz:
				o.Horz = append(o.Horz, k)
			}
		}
		if len(o.Horz) > 0 {
			if paths++; paths > 10 {
				continue
			}
		}
		in.Observations = append(in.Observations, o)
	}
	return in, truth
}

// drawPlacement places n CHAs on distinct cells of a rows×cols grid.
func drawPlacement(rng *rand.Rand, rows, cols, n int) []mesh.Coord {
	pos := make([]mesh.Coord, n)
	for i, cell := range rng.Perm(rows * cols)[:n] {
		pos[i] = mesh.Coord{Row: cell / cols, Col: cell % cols}
	}
	return pos
}

// drawOther returns a placement near or far from truth: a fresh random
// placement, the column mirror of truth, truth with two CHAs swapped or
// one moved to a free cell — all of those all-distinct — or truth with
// an observer of one of in's observations moved onto the tile of a
// flow endpoint: a horizontal observer onto the sink, a vertical one
// onto the source CHA.
func drawOther(rng *rand.Rand, in Input, truth []mesh.Coord) []mesh.Coord {
	rows, cols := in.Rows, in.Cols
	q := append([]mesh.Coord(nil), truth...)
	switch rng.Intn(5) {
	case 0:
		return drawPlacement(rng, rows, cols, len(truth))
	case 1:
		for i := range q {
			q[i].Col = cols - 1 - q[i].Col
		}
	case 2:
		i, j := rng.Intn(len(q)), rng.Intn(len(q))
		q[i], q[j] = q[j], q[i]
	case 3:
		o := in.Observations[rng.Intn(len(in.Observations))]
		if vert := append(o.Up, o.Down...); len(vert) > 0 && !o.Anchored && rng.Intn(2) == 0 {
			q[vert[rng.Intn(len(vert))]] = q[o.SrcCHA]
		} else if len(o.Horz) > 0 {
			q[o.Horz[rng.Intn(len(o.Horz))]] = q[o.DstCHA]
		}
	default:
		used := map[mesh.Coord]bool{}
		for _, p := range q {
			used[p] = true
		}
		for _, cell := range rng.Perm(rows * cols) {
			if t := (mesh.Coord{Row: cell / cols, Col: cell % cols}); !used[t] {
				q[rng.Intn(len(q))] = t
				break
			}
		}
	}
	return q
}

func distinct(pos []mesh.Coord) bool {
	seen := map[mesh.Coord]bool{}
	for _, p := range pos {
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// FuzzObservationEncoding pins the superset claim the planner's
// byte-identity rests on: the meshroute encoding, the Validate reference
// and the ILP rows locate lowers the encoding to all admit the same
// placements. On a fuzzer-drawn grid of up to 6×6 with observations from
// meshroute.Classify on a true placement:
//
//   - the true placement satisfies the encoding under both bound
//     settings;
//   - for other placements q, the encoding under strict bounds accepts
//     q exactly when Validate does, where q is all-distinct (Validate
//     lets an observer share the sink's tile);
//   - under both bound settings, the pruned and the NoPrune model with
//     q's coordinates and some direction of each path pass
//     ilp.CheckFeasible exactly when the encoding accepts q, and so does
//     warmAssignment's full seed of the NoPrune model.
//
// The arguments pick the grid (1–6 rows and columns), the CHA count, up
// to 3 IMCs and up to 16 flows (from mix), and the seed. Run the fuzzer
// with:
//
//	go test -run '^$' -fuzz '^FuzzObservationEncoding$' -fuzztime 20s ./internal/locate/
func FuzzObservationEncoding(f *testing.F) {
	for _, shape := range [][2]uint8{{2, 2}, {3, 4}, {5, 6}, {6, 6}} {
		for _, chas := range []uint8{3, 12} {
			for _, mix := range []uint8{6, 43, 63} {
				f.Add(shape[0], shape[1], chas, mix, int64(shape[0])*int64(chas)+int64(mix))
			}
		}
	}
	f.Fuzz(func(t *testing.T, rows, cols, chas, mix uint8, seed int64) {
		r, c := 1+int(rows-1)%6, 1+int(cols-1)%6
		n := 1 + int(chas)%(r*c)
		nIMC, flows := int(mix%4), 1+int(mix/4%16)
		rng := rand.New(rand.NewSource(seed))
		in, truth := drawEncodingInput(rng, r, c, n, nIMC, flows)
		for _, paper := range []bool{false, true} {
			if !encodingHolds(in, truth, paper) {
				t.Fatalf("paper bounds %v: the true placement %v violates its own encoding", paper, truth)
			}
		}
		if len(in.Observations) == 0 {
			return
		}
		for trial := 0; trial < 12; trial++ {
			q := drawOther(rng, in, truth)
			if strict, err := encodingHolds(in, q, false), Validate(in, q); distinct(q) && strict != (err == nil) {
				t.Fatalf("placement %v: encoding accepts %v, Validate says %v", q, strict, err)
			}
			for _, paper := range []bool{false, true} {
				want := encodingHolds(in, q, paper)
				for _, noPrune := range []bool{false, true} {
					b := newBuilder(in)
					if noPrune {
						for p, o := range in.Observations {
							b.addObservation(p, o, paper)
						}
					} else {
						b.addPruned(paper)
					}
					if got := rowsAdmit(b, q); got != want {
						t.Fatalf("paper bounds %v, NoPrune %v, placement %v: rows admit %v, encoding %v",
							paper, noPrune, q, got, want)
					}
					if noPrune {
						b.addObjective()
						if err := ilp.CheckFeasible(b.m, b.warmAssignment(q)); (err == nil) != want {
							t.Fatalf("paper bounds %v, placement %v: warm seed feasibility %v, encoding %v",
								paper, q, err, want)
						}
					}
				}
			}
		}
	})
}
