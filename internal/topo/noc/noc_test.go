package noc

import (
	"context"
	"flag"
	"reflect"
	"strings"
	"testing"

	"coremap/internal/mesh"
	"coremap/internal/topo"
	"coremap/internal/topo/topotest"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick_golden.json from the current tree")

// TestQuickSurveyGolden pins every catalog SKU's quick survey, seeds 1-3,
// to the checked-in golden. The emitter's model goes through ilp.Solve,
// so this is the backend's guard against solver changes moving a map.
// Regenerate with: go test -run TestQuickSurveyGolden -update-golden .
func TestQuickSurveyGolden(t *testing.T) {
	topotest.CheckGolden(context.Background(), t, Backend{}, "testdata/quick_golden.json", *updateGolden, 1, 2, 3)
}

// TestRemapTablesInvert: the derived inverse tables actually invert the
// public scrambling tables.
func TestRemapTablesInvert(t *testing.T) {
	for px := 0; px < W; px++ {
		if nocToPhysX[PhysToNoCX[px]] != px {
			t.Errorf("x table not inverted at %d", px)
		}
	}
	for py := 0; py < H; py++ {
		if nocToPhysY[PhysToNoCY[py]] != py {
			t.Errorf("y table not inverted at %d", py)
		}
	}
}

// TestAnchorSignaturesUnique: the anchor roster's six hop sums identify
// every cell of the torus uniquely — the property the whole backend
// stands on.
func TestAnchorSignaturesUnique(t *testing.T) {
	type sig [2 * 3]int
	seen := make(map[sig]Coord)
	for x := 0; x < W; x++ {
		for y := 0; y < H; y++ {
			var s sig
			for a, anc := range Anchors {
				s[2*a] = mod(x-anc.Pos.X, W) + mod(y-anc.Pos.Y, H)
				s[2*a+1] = mod(anc.Pos.X-x, W) + mod(anc.Pos.Y-y, H)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("cells (%d,%d) and (%d,%d) share hop signature %v", x, y, prev.X, prev.Y, s)
			}
			seen[s] = Coord{X: x, Y: y}
		}
	}
}

// TestQuickSurveyExact: every catalog SKU, several seeds — the campaign
// must recover the secret worker binding exactly, every worker proven
// unique.
func TestQuickSurveyExact(t *testing.T) {
	for _, sku := range Catalog {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := Backend{}.QuickSurvey(context.Background(), sku.Name, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sku.Name, seed, err)
			}
			if !res.Exact || !res.Optimal {
				t.Errorf("%s seed %d: exact=%v optimal=%v", sku.Name, seed, res.Exact, res.Optimal)
			}
			wantWorkers := (H-sku.Harvested)*W - len(Anchors)
			if res.Agents != wantWorkers {
				t.Errorf("%s: %d workers, want %d", sku.Name, res.Agents, wantWorkers)
			}
			if res.Observations != wantWorkers*len(Anchors)*2 {
				t.Errorf("%s: %d observations, want %d", sku.Name, res.Observations, wantWorkers*len(Anchors)*2)
			}
			truth := New(sku, seed)
			for w, c := range res.Placement {
				if c != truth.TruePhys(w) {
					t.Errorf("%s seed %d: worker %d at %v, truth %v", sku.Name, seed, w, c, truth.TruePhys(w))
				}
			}
		}
	}
}

// TestQuickSurveyDeterministic: same SKU + seed twice gives the same
// result; different seeds move the secret binding.
func TestQuickSurveyDeterministic(t *testing.T) {
	a, err := Backend{}.QuickSurvey(context.Background(), "noc36", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Backend{}.QuickSurvey(context.Background(), "noc36", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c, err := Backend{}.QuickSurvey(context.Background(), "noc36", 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Placement, c.Placement) {
		t.Errorf("seeds 7 and 8 yielded the same placement")
	}
}

// TestHarvestingRespectsAnchors: fused-off rows never contain an anchor
// tile, and the worker roster shrinks by a full row per harvest step.
func TestHarvestingRespectsAnchors(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		in := New(Catalog[2], seed) // noc30: 2 harvested rows
		if len(in.harvestedRows) != 2 {
			t.Fatalf("seed %d: %d harvested rows", seed, len(in.harvestedRows))
		}
		for _, r := range in.harvestedRows {
			if anchorPhysRow(r) {
				t.Errorf("seed %d: harvested anchor row %d", seed, r)
			}
			for _, c := range in.workerPhys {
				if c.Row == r {
					t.Errorf("seed %d: worker on harvested row %d", seed, r)
				}
			}
		}
	}
}

// TestSolveWorkerAmbiguity: a single forward observation cannot pin a
// cell — SolveWorker must report non-unique, not pretend.
func TestSolveWorkerAmbiguity(t *testing.T) {
	in := New(Catalog[0], 3)
	obsList, _, err := in.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var first []Observation
	for _, o := range obsList {
		if o.Worker == 0 && o.Anchor == 0 && !o.Reverse {
			first = append(first, o)
		}
	}
	if len(first) != 1 {
		t.Fatalf("expected 1 observation, got %d", len(first))
	}
	_, unique, err := SolveWorker(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if unique {
		t.Error("one hop sum claimed a unique cell")
	}
}

// TestSolveWorkerInfeasible: contradictory observations are a permanent
// error, not a silent wrong answer.
func TestSolveWorkerInfeasible(t *testing.T) {
	obsList := []Observation{
		{Worker: 0, Anchor: 0, Hops: 0},
		{Worker: 0, Anchor: 0, Reverse: true, Hops: 1},
	}
	if _, _, err := SolveWorker(context.Background(), obsList); err == nil {
		t.Error("contradictory observations solved")
	}
}

// TestBackendRegistered: the init registration is visible through the
// topo registry.
func TestBackendRegistered(t *testing.T) {
	b, err := topo.Lookup("noc")
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != topo.KindNoC {
		t.Errorf("Lookup(noc).Kind() = %v", b.Kind())
	}
	if _, err := findSKU("nope"); err == nil {
		t.Error("findSKU(nope) succeeded")
	}
}

// TestRenderMarksHarvest: harvested rows render as -- and anchors keep
// their cells.
func TestRenderMarksHarvest(t *testing.T) {
	in := New(Catalog[1], 2) // one harvested row
	placement := make([]mesh.Coord, in.Workers())
	for w := range placement {
		placement[w] = in.TruePhys(w)
	}
	out := render(in, placement)
	if !strings.Contains(out, "  --  --  --  --  --  --\n") {
		t.Errorf("no harvested row in render:\n%s", out)
	}
	for _, want := range []string{"d0", "e0", "p0"} {
		if !strings.Contains(out, want) {
			t.Errorf("anchor label %s missing from render:\n%s", want, out)
		}
	}
}
