// Package topotest holds the behavioral contract every topology backend
// must satisfy, as reusable test helpers. The mesh router's edge-case
// semantics (internal/mesh's edge tests) set the baseline: zero-length
// flows are legal and free, surveys are deterministic per seed, and a
// recovered placement is a well-formed assignment — one coordinate per
// agent, no two agents sharing a tile.
package topotest

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"coremap/internal/mesh"
	"coremap/internal/topo"
)

// CheckSurvey runs a backend's QuickSurvey for one (sku, seed) and
// checks the contract: the survey must succeed, recover the instance
// exactly with proven optimality, place every agent on a distinct tile,
// and reproduce byte-identically when re-run with the same seed.
func CheckSurvey(ctx context.Context, t *testing.T, b topo.Backend, sku string, seed int64) *topo.SurveyResult {
	t.Helper()
	res, err := b.QuickSurvey(ctx, sku, seed)
	if err != nil {
		t.Fatalf("%s/%s seed %d: %v", b.Name(), sku, seed, err)
	}
	if res.Backend != b.Name() {
		t.Errorf("%s: result claims backend %q", b.Name(), res.Backend)
	}
	if !res.Exact {
		t.Errorf("%s/%s seed %d: placement not exact", b.Name(), sku, seed)
	}
	if !res.Optimal {
		t.Errorf("%s/%s seed %d: solver did not prove the placement", b.Name(), sku, seed)
	}
	if len(res.Placement) != res.Agents {
		t.Errorf("%s/%s: %d agents but %d placements", b.Name(), sku, res.Agents, len(res.Placement))
	}
	if res.Observations <= 0 || res.Rendered == "" {
		t.Errorf("%s/%s: empty survey (obs=%d, rendered=%q)", b.Name(), sku, res.Observations, res.Rendered)
	}
	name := b.Name()
	seen := make(map[mesh.Coord]int, len(res.Placement))
	for agent, c := range res.Placement {
		if prev, dup := seen[c]; dup {
			t.Errorf("%s/%s: agents %d and %d share tile %v", name, sku, prev, agent, c)
		}
		seen[c] = agent
	}
	again, err := b.QuickSurvey(ctx, sku, seed)
	if err != nil {
		t.Fatalf("%s/%s seed %d rerun: %v", b.Name(), sku, seed, err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("%s/%s seed %d: survey not deterministic", b.Name(), sku, seed)
	}
	return res
}

// CheckBackend runs the full contract against a backend: identity and
// catalog invariants, the unknown-SKU error path, and CheckSurvey over
// the default SKU for each seed.
func CheckBackend(ctx context.Context, t *testing.T, b topo.Backend, seeds ...int64) {
	t.Helper()
	if b.Name() != b.Kind().String() {
		t.Errorf("backend name %q does not match kind %q", b.Name(), b.Kind())
	}
	cat := b.Catalog()
	if len(cat) == 0 {
		t.Fatalf("%s: empty catalog", b.Name())
	}
	def := b.DefaultSKU()
	found := false
	for _, sku := range cat {
		if sku == def {
			found = true
		}
	}
	if !found {
		t.Errorf("%s: default SKU %q not in catalog %v", b.Name(), def, cat)
	}
	if _, err := b.QuickSurvey(ctx, "no-such-sku", 1); err == nil {
		t.Errorf("%s: survey of unknown SKU succeeded", b.Name())
	}
	for _, seed := range seeds {
		CheckSurvey(ctx, t, b, def, seed)
	}
}

// CheckGolden surveys every catalog SKU of a backend at each seed and
// compares the full SurveyResults against the JSON golden at path. The
// golden pins the backend's end-to-end output — placement, solver
// optimality, host-op count and rendering — so a solver or emitter change
// that moves any survey shows up as a diff. With update set it rewrites
// the golden from the current tree instead; regenerate only when a
// survey's semantics intentionally change.
func CheckGolden(ctx context.Context, t *testing.T, b topo.Backend, path string, update bool, seeds ...int64) {
	t.Helper()
	name := b.Name()
	got := make(map[string]*topo.SurveyResult)
	for _, sku := range b.Catalog() {
		for _, seed := range seeds {
			res, err := b.QuickSurvey(ctx, sku, seed)
			if err != nil {
				t.Fatalf("%s/%s seed %d: %v", name, sku, seed, err)
			}
			got[fmt.Sprintf("%s/seed=%d", sku, seed)] = res
		}
	}
	if update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden surveys to %s", len(got), path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update-golden): %v", err)
	}
	var want map[string]*topo.SurveyResult
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s: golden has %d surveys, corpus has %d", name, len(want), len(got))
	}
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if res := got[key]; !reflect.DeepEqual(res, want[key]) {
			t.Errorf("%s %s diverged from golden\n got %+v\nwant %+v", name, key, res, want[key])
		}
	}
}
