package coremap_test

// Refactor-transparency pin: the mesh backend must keep producing maps
// byte-identical to the pre-refactor pipeline. The goldens in
// testdata/mesh_golden.json were captured from the tree *before* the
// topology-backend extraction (PR 7) across the determinism corpus —
// catalog SKUs × survey seeds × ILP worker counts × planner on/off — and
// every future change to the mesh path must reproduce them exactly.
// Regenerate (only when the pipeline semantics intentionally change,
// with a fingerprintVersion bump) with:
//
//	go test -run TestMeshGoldenMaps -update-golden .

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"coremap"
	"coremap/internal/locate"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/mesh_golden.json from the current pipeline")

const goldenPath = "testdata/mesh_golden.json"

// goldenMap is the serialized per-combo pipeline output. Every field the
// map's identity depends on participates; solver effort (node counts)
// deliberately does not, it may vary with worker count.
type goldenMap struct {
	OSToCHA  []int        `json:"os_to_cha"`
	Pos      []mesh.Coord `json:"pos"`
	Anchored bool         `json:"anchored"`
	Optimal  bool         `json:"optimal"`
}

// goldenCorpus enumerates the determinism corpus in a fixed order:
// SKUs × seeds × worker counts × plan on/off. It covers every catalog
// SKU, and the seeds reach all three fusing patterns (sku.Pattern(seed%3)).
func goldenCorpus() (keys []string, run map[string]func(t testing.TB) goldenMap) {
	skus := machine.SKUs
	seeds := []int64{3, 7, 11}
	workers := []int{1, 4}
	plans := []bool{true, false}

	run = make(map[string]func(t testing.TB) goldenMap)
	for _, sku := range skus {
		for _, seed := range seeds {
			for _, w := range workers {
				for _, planned := range plans {
					sku, seed, w, planned := sku, seed, w, planned
					key := fmt.Sprintf("%s/seed=%d/workers=%d/plan=%v", sku.Name, seed, w, planned)
					keys = append(keys, key)
					run[key] = func(t testing.TB) goldenMap {
						m := machine.New(sku, sku.Pattern(int(seed)%3), machine.Config{Seed: seed})
						die := coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}
						res, err := coremap.MapMachine(context.Background(), m, die, coremap.Options{
							Probe:         probe.Options{Seed: seed},
							Locate:        locate.Options{Workers: w},
							MemoryAnchors: true,
							NoPlan:        !planned,
						})
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						return goldenMap{
							OSToCHA:  res.OSToCHA,
							Pos:      res.Pos,
							Anchored: res.Anchored,
							Optimal:  res.Optimal,
						}
					}
				}
			}
		}
	}
	return keys, run
}

func TestMeshGoldenMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("full determinism corpus is not -short material")
	}
	keys, run := goldenCorpus()

	if *updateGolden {
		out := make(map[string]goldenMap, len(keys))
		for _, key := range keys {
			out[key] = run[key](t)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden maps to %s", len(out), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update-golden): %v", err)
	}
	want := make(map[string]goldenMap)
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	var wantKeys []string
	for k := range want {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	gotKeys := append([]string(nil), keys...)
	sort.Strings(gotKeys)
	if !reflect.DeepEqual(wantKeys, gotKeys) {
		t.Fatalf("corpus drifted from goldens:\n got %v\nwant %v", gotKeys, wantKeys)
	}

	for _, key := range keys {
		key := key
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			got := run[key](t)
			if !reflect.DeepEqual(got, want[key]) {
				t.Errorf("map diverged from pre-refactor golden\n got %+v\nwant %+v", got, want[key])
			}
		})
	}
}
