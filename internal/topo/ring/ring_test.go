package ring

import (
	"context"
	"flag"
	"reflect"
	"testing"

	"coremap/internal/ilp"
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

// TestQuickSurveyExact: every catalog SKU, several seeds — the exhaustive
// contention campaign must reconstruct the secret slot permutation
// exactly, with proven optimality (the acceptance bar for the backend).
func TestQuickSurveyExact(t *testing.T) {
	for _, sku := range Catalog {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := Backend{}.QuickSurvey(context.Background(), sku.Name, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sku.Name, seed, err)
			}
			if !res.Exact || !res.Optimal {
				t.Errorf("%s seed %d: exact=%v optimal=%v placement=%v",
					sku.Name, seed, res.Exact, res.Optimal, res.Placement)
			}
			truth := New(sku, seed)
			for agent, c := range res.Placement {
				if c.Col != truth.TrueSlot(agent) {
					t.Errorf("%s seed %d: agent %d placed at slot %d, truth %d",
						sku.Name, seed, agent, c.Col, truth.TrueSlot(agent))
				}
			}
		}
	}
}

// TestQuickSurveyDeterministic: same SKU + seed twice gives the same
// result, different seeds shuffle the secret placement.
func TestQuickSurveyDeterministic(t *testing.T) {
	a, err := Backend{}.QuickSurvey(context.Background(), "ring8", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Backend{}.QuickSurvey(context.Background(), "ring8", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c, err := Backend{}.QuickSurvey(context.Background(), "ring8", 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Placement, c.Placement) {
		t.Errorf("seeds 7 and 8 yielded the same placement %v", a.Placement)
	}
}

// TestContendedPredicate pins the overlap semantics on a hand-built
// instance: agents 0,1,2 at slots 1,2,3 of a 3-wide ring (SA at 0, GPU
// at 4).
func TestContendedPredicate(t *testing.T) {
	in := &Instance{sku: &SKU{Name: "toy", Agents: 3}, slot: []int{1, 2, 3}}
	cases := []struct {
		o    Observation
		want bool
	}{
		// Toward SA: attacker at slot 2 holds [0,2); victim span [1,3)
		// overlaps, span [3,?) would not exist with 3 agents.
		{Observation{Attacker: 1, VictimA: 0, VictimB: 2}, true},
		// Attacker at slot 1 holds [0,1); victims at 2,3 start past it.
		{Observation{Attacker: 0, VictimA: 1, VictimB: 2}, false},
		// Toward GPU: attacker at slot 2 holds [2,4]; victim at slot 3
		// reaches past it.
		{Observation{Attacker: 1, VictimA: 0, VictimB: 2, ToGPU: true}, true},
		// Attacker at slot 3 holds [3,4]; victims at 1,2 stay below.
		{Observation{Attacker: 2, VictimA: 0, VictimB: 1, ToGPU: true}, false},
	}
	for _, c := range cases {
		if got := in.contended(c.o); got != c.want {
			t.Errorf("contended(%+v) = %v, want %v", c.o, got, c.want)
		}
	}
}

// TestMeasureNoiseNeverFlips: the jitter bound is below the detection
// threshold, so every measured bit equals the ground-truth predicate.
func TestMeasureNoiseNeverFlips(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := New(Catalog[2], seed)
		obsList, hostOps, err := in.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if hostOps != int64(len(obsList)*latencySamples) {
			t.Errorf("hostOps = %d, want %d", hostOps, len(obsList)*latencySamples)
		}
		for _, o := range obsList {
			if o.Contended != in.contended(o) {
				t.Errorf("seed %d: noise flipped bit %+v", seed, o)
			}
		}
	}
}

// TestEmitConstraintsImplication: on a complete campaign the quiet
// relations subsume every contended disjunction, so the model carries no
// observation binaries — only the n(n-1)/2 all-distinct selectors.
func TestEmitConstraintsImplication(t *testing.T) {
	sku := Catalog[2]
	in := New(sku, 4)
	obsList, _, err := in.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := ilp.NewModel()
	vars := make([]ilp.Var, sku.Agents)
	for i := range vars {
		vars[i] = m.NewVar("P", 1, int64(sku.Agents))
	}
	nVars := sku.Agents
	EmitConstraints(m, sku, vars, obsList)
	binaries := m.NumVars() - nVars
	want := sku.Agents * (sku.Agents - 1) / 2
	if binaries != want {
		t.Errorf("emitted %d binaries, want only the %d all-distinct selectors", binaries, want)
	}
}

// TestSolvePartialCampaign: drop the quiet observations so the solver
// must lean on the contended big-M disjunctions — the degraded path the
// implication shortcut skips on complete campaigns.
func TestSolvePartialCampaign(t *testing.T) {
	sku := Catalog[0] // ring4 keeps the disjunction-only model small
	in := New(sku, 2)
	obsList, _, err := in.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var contendedOnly []Observation
	for _, o := range obsList {
		if o.Contended {
			contendedOnly = append(contendedOnly, o)
		}
	}
	slots, _, err := Solve(context.Background(), sku, contendedOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Contended bits alone still constrain: every returned slot is a
	// valid permutation value and the assignment satisfies each bit.
	seenSlot := make([]bool, sku.Agents+1)
	for _, s := range slots {
		if s < 1 || s > sku.Agents || seenSlot[s] {
			t.Fatalf("solve returned non-permutation %v", slots)
		}
		seenSlot[s] = true
	}
	check := &Instance{sku: sku, slot: slots}
	for _, o := range contendedOnly {
		if !check.contended(o) {
			t.Errorf("solution %v violates observation %+v", slots, o)
		}
	}
}

// TestBackendRegistered: the init registration is visible through the
// topo registry.
func TestBackendRegistered(t *testing.T) {
	b, err := topo.Lookup("ring")
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != topo.KindRing {
		t.Errorf("Lookup(ring).Kind() = %v", b.Kind())
	}
	if got := (Backend{}).Catalog(); len(got) != 3 || got[0] != "ring4" {
		t.Errorf("Catalog() = %v", got)
	}
	if _, err := findSKU("nope"); err == nil {
		t.Error("findSKU(nope) succeeded")
	}
}

// TestRender pins the slot-line rendering.
func TestRender(t *testing.T) {
	sku := &SKU{Name: "toy", Agents: 3}
	got := render(sku, []int{2, 3, 1})
	want := "SA - c2 - c0 - c1 - GPU\n"
	if got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
}
