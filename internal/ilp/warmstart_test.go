package ilp

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"coremap/internal/obs"
)

// ctxWithRegistry returns a context carrying a fresh metrics registry and
// the registry itself, for asserting solver counters.
func ctxWithRegistry() (context.Context, *obs.Registry) {
	tel := obs.New(obs.Config{})
	return obs.With(context.Background(), tel), tel.Registry()
}

// TestWarmStartByteIdentical pins the warm-start soundness contract: on
// every corpus model, seeding the incumbent with the cold optimum must
// return byte-identical Solution.Values at every worker count.
func TestWarmStartByteIdentical(t *testing.T) {
	for _, cm := range corpus() {
		t.Run(cm.name, func(t *testing.T) {
			cold, err := Solve(context.Background(), cm.build(), Options{Workers: 1})
			if err != nil {
				t.Skipf("corpus model unsolved cold: %v", err)
			}
			for _, w := range workerCounts {
				warm, err := Solve(context.Background(), cm.build(),
					Options{Workers: w, WarmStart: cold.Values})
				if err != nil {
					t.Fatalf("workers=%d warm solve failed: %v", w, err)
				}
				if !reflect.DeepEqual(warm.Values, cold.Values) {
					t.Fatalf("workers=%d warm-started values differ from cold:\n%v\n%v",
						w, warm.Values, cold.Values)
				}
			}
		})
	}
}

// TestWarmStartSuboptimalSeed: a feasible but suboptimal seed is
// accepted (counted as an installed incumbent) and still yields the
// canonical optimum.
func TestWarmStartSuboptimalSeed(t *testing.T) {
	cold, err := Solve(context.Background(), packingModel(8, 20), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// x_i = i + 3 satisfies the strictly increasing chain but overshoots
	// the optimum's objective.
	seed := make([]int64, 8)
	for i := range seed {
		seed[i] = int64(i + 3)
	}
	ctx, reg := ctxWithRegistry()
	warm, err := Solve(ctx, packingModel(8, 20), Options{Workers: 1, WarmStart: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Values, cold.Values) {
		t.Fatalf("suboptimal seed changed the solution:\n%v\n%v", warm.Values, cold.Values)
	}
	if got := reg.Counter("ilp/incumbent_seeded").Value(); got != 1 {
		t.Errorf("ilp/incumbent_seeded = %d, want 1", got)
	}
}

// TestWarmStartRejectsBadSeeds: infeasible or wrong-length seeds — and
// any seed under NoWarmStart — must be ignored, not error.
func TestWarmStartRejectsBadSeeds(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"infeasible", Options{WarmStart: make([]int64, 8)}}, // violates the ord chain
		{"wrong-length", Options{WarmStart: []int64{0, 1}}},
		{"no-warm-start", Options{WarmStart: []int64{3, 4, 5, 6, 7, 8, 9, 10}, NoWarmStart: true}},
	}
	cold, err := Solve(context.Background(), packingModel(8, 20), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, reg := ctxWithRegistry()
			opts := tc.opts
			opts.Workers = 1
			sol, err := Solve(ctx, packingModel(8, 20), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sol.Values, cold.Values) {
				t.Fatalf("values differ from cold solve")
			}
			if got := reg.Counter("ilp/incumbent_seeded").Value(); got != 0 {
				t.Errorf("ilp/incumbent_seeded = %d, want 0 (seed must be rejected)", got)
			}
		})
	}
}

// TestPooledStateIsolatedAcrossSolves: the worker free lists and
// propagation scratch are per-solve state, so a burst of interleaved
// warm- and cold-started solves of different models must reproduce each
// model's canonical values exactly — any stale pooled bound vector
// crossing a solve would break the equality. The CI race job runs this
// under -race, which additionally shakes out sharing of pooled buffers
// between workers.
func TestPooledStateIsolatedAcrossSolves(t *testing.T) {
	models := corpus()
	ref := make(map[string]*Solution)
	for _, cm := range models {
		sol, err := Solve(context.Background(), cm.build(), Options{Workers: 1})
		if err != nil {
			continue // infeasible corpus entries are exercised below anyway
		}
		ref[cm.name] = sol
	}
	for round := 0; round < 3; round++ {
		// Reverse order on odd rounds so each solve follows a different
		// predecessor's pooled state.
		for i := range models {
			cm := models[i]
			if round%2 == 1 {
				cm = models[len(models)-1-i]
			}
			cold, ok := ref[cm.name]
			if !ok {
				if _, err := Solve(context.Background(), cm.build(), Options{Workers: 4}); err == nil {
					t.Fatalf("%s became feasible mid-test", cm.name)
				}
				continue
			}
			sol, err := Solve(context.Background(), cm.build(),
				Options{Workers: 4, WarmStart: cold.Values})
			if err != nil {
				t.Fatalf("round %d %s: %v", round, cm.name, err)
			}
			if !reflect.DeepEqual(sol.Values, cold.Values) {
				t.Fatalf("round %d %s: values drifted across pooled solves:\n%v\n%v",
					round, cm.name, sol.Values, cold.Values)
			}
		}
	}
}

// TestWarmStartNoGoroutineLeak: seeding the incumbent must not change
// the worker join contract — a burst of warm-started parallel solves
// leaves the goroutine count where it started.
func TestWarmStartNoGoroutineLeak(t *testing.T) {
	seedSol, err := Solve(context.Background(), packingModel(12, 20), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		if _, err := Solve(context.Background(), packingModel(12, 20),
			Options{Workers: 4, WarmStart: seedSol.Values}); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after warm-started solves", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
