package meshroute

import (
	"testing"

	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/topo"
)

func TestClassifyRoutes(t *testing.T) {
	src := mesh.Coord{Row: 2, Col: 1}
	dst := mesh.Coord{Row: 0, Col: 3}
	cases := []struct {
		t    mesh.Coord
		want topo.Channel
	}{
		{mesh.Coord{Row: 1, Col: 1}, topo.ChanUp},   // vertical segment
		{mesh.Coord{Row: 0, Col: 1}, topo.ChanUp},   // corner tile is vertical
		{mesh.Coord{Row: 0, Col: 2}, topo.ChanHorz}, // horizontal segment
		{mesh.Coord{Row: 0, Col: 3}, topo.ChanHorz}, // destination tile
		{mesh.Coord{Row: 2, Col: 1}, topo.ChanNone}, // source transmits, never receives
		{mesh.Coord{Row: 2, Col: 2}, topo.ChanNone}, // off-route
		{mesh.Coord{Row: 1, Col: 3}, topo.ChanNone}, // dst column, wrong row
		{mesh.Coord{Row: 0, Col: 0}, topo.ChanNone}, // behind the turn
	}
	for _, c := range cases {
		if got := Classify(src, dst, c.t); got != c.want {
			t.Errorf("Classify(%v→%v, %v) = %d, want %d", src, dst, c.t, got, c.want)
		}
	}

	// Downward and westward mirror.
	src, dst = mesh.Coord{Row: 0, Col: 3}, mesh.Coord{Row: 2, Col: 1}
	if got := Classify(src, dst, mesh.Coord{Row: 1, Col: 3}); got != topo.ChanDown {
		t.Errorf("down segment misclassified: %d", got)
	}
	if got := Classify(src, dst, mesh.Coord{Row: 2, Col: 3}); got != topo.ChanDown {
		t.Errorf("corner on down route misclassified: %d", got)
	}
	if got := Classify(src, dst, mesh.Coord{Row: 2, Col: 2}); got != topo.ChanHorz {
		t.Errorf("westward segment misclassified: %d", got)
	}

	// Pure vertical route: destination tile charges vertical.
	src, dst = mesh.Coord{Row: 3, Col: 0}, mesh.Coord{Row: 1, Col: 0}
	if got := Classify(src, dst, dst); got != topo.ChanUp {
		t.Errorf("pure-vertical destination misclassified: %d", got)
	}
	// Zero-length route (CHA sharing the IMC tile): no observers.
	if got := Classify(src, src, src); got != topo.ChanNone {
		t.Errorf("zero-length route should have no observers: %d", got)
	}
}

// TestChannelValuesPinned pins the topo.Channel byte values the planner's
// predictKey encoding depends on: changing them would silently split the
// planner's partition keys from the pre-refactor encoding.
func TestChannelValuesPinned(t *testing.T) {
	pins := []struct {
		ch   topo.Channel
		want byte
	}{{topo.ChanNone, 0}, {topo.ChanUp, 1}, {topo.ChanDown, 2}, {topo.ChanHorz, 3}}
	for _, p := range pins {
		if byte(p.ch) != p.want {
			t.Errorf("channel byte drifted: %d != %d", p.ch, p.want)
		}
	}
}

// TestPredictorMatchesClassify pins the route walk to the per-tile
// specification, exhaustively on every catalog grid (5×6 and 8×6): for
// every source — each cell, the catalog IMC positions among them — and
// every destination, the route's hops must be exactly the tiles where
// Classify reports a channel, each once and with that channel.
func TestPredictorMatchesClassify(t *testing.T) {
	var pred Predictor
	var hops []topo.Hop
	for _, sku := range machine.SKUs {
		var cells []mesh.Coord
		for r := 0; r < sku.Rows; r++ {
			for c := 0; c < sku.Cols; c++ {
				cells = append(cells, mesh.Coord{Row: r, Col: c})
			}
		}
		srcs := append(append([]mesh.Coord(nil), cells...), sku.IMC...)
		for _, src := range srcs {
			for _, dst := range cells {
				hops = pred.Route(hops[:0], src, dst)
				got := make(map[mesh.Coord]topo.Channel, len(hops))
				for _, h := range hops {
					if _, dup := got[h.Tile]; dup {
						t.Fatalf("%s: route %v→%v visits %v twice", sku.Name, src, dst, h.Tile)
					}
					got[h.Tile] = h.Chan
				}
				onGrid := 0
				for _, tile := range cells {
					want := Classify(src, dst, tile)
					ch, ok := got[tile]
					if ok != (want != topo.ChanNone) || ch != want {
						t.Fatalf("%s: route %v→%v at %v: hop channel %d (on route %v), Classify %d",
							sku.Name, src, dst, tile, ch, ok, want)
					}
					if ok {
						onGrid++
					}
				}
				if onGrid != len(hops) {
					t.Fatalf("%s: route %v→%v leaves the grid: %v", sku.Name, src, dst, hops)
				}
			}
		}
	}
}
