package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"coremap"
	"coremap/internal/cmerr"
	"coremap/internal/hostif"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/obs"
)

// mapOnce maps a freshly generated instance through wrap(machine) and
// returns the canonical JSON of the result.
func mapOnce(t *testing.T, sku *machine.SKU, pattern int, wrap func(hostif.Host) hostif.Host) string {
	t.Helper()
	m := machine.Generate(sku, pattern, machine.Config{Seed: 7})
	res, err := coremap.MapMachine(context.Background(), wrap(m),
		coremap.DieInfo{Rows: sku.Rows, Cols: sku.Cols, IMC: sku.IMC}, coremap.Options{})
	if err != nil {
		t.Fatalf("%s: %v", sku.Name, err)
	}
	var b bytes.Buffer
	writeCanonical(&b, res)
	return b.String()
}

// The benchmark's Host decorator, counting or timed, must not change a
// map or the number of host operations it costs. The reference count is
// the program's own hostif.Counting decorator.
func TestHostDecoratorTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("maps four chips")
	}
	for _, tc := range []struct {
		sku     *machine.SKU
		pattern int
	}{
		{machine.SKU8124M, 0}, {machine.SKU8175M, 0}, {machine.SKU8259CL, 0},
		{machine.SKU6354, 2}, // the cheapest Ice Lake pattern
	} {
		reg := obs.NewRegistry()
		want := mapOnce(t, tc.sku, tc.pattern, func(h hostif.Host) hostif.Host {
			return hostif.Counting(h, reg, nil)
		})
		wantOps := reg.Snapshot().Total("host/ops/")
		snap := reg.Snapshot()
		for _, timed := range []bool{false, true} {
			var bh *benchHost
			got := mapOnce(t, tc.sku, tc.pattern, func(h hostif.Host) hostif.Host {
				bh = newBenchHost(h, timed)
				bh.resetTimeline(time.Now())
				return bh
			})
			if got != want {
				t.Errorf("%s timed=%v: map differs with the decorator:\n got %s\nwant %s", tc.sku.Name, timed, got, want)
			}
			if bh.totalOps() != wantOps {
				t.Errorf("%s timed=%v: %d host ops, want %d", tc.sku.Name, timed, bh.totalOps(), wantOps)
			}
			for k, name := range opNames {
				if w := snap.Counters["host/ops/"+name]; bh.ops[k] != w {
					t.Errorf("%s timed=%v: %d %s ops, want %d", tc.sku.Name, timed, bh.ops[k], name, w)
				}
			}
			if timed && (len(bh.ends) != int(wantOps) || bh.busy <= 0) {
				t.Errorf("%s: timeline has %d ops and %d ns busy, want %d ops", tc.sku.Name, len(bh.ends), bh.busy, wantOps)
			}
		}
	}
}

func span(id, parent int64, name string, startUS, durUS int64) obs.SpanRecord {
	return obs.SpanRecord{ID: id, Parent: parent, Name: name, StartUS: startUS, DurUS: durUS}
}

func TestSelfTime(t *testing.T) {
	recs := []obs.SpanRecord{
		span(1, 0, "coremap/map-machine", 0, 100),
		span(2, 1, "probe/run", 10, 60),
		span(3, 2, "probe/map-cores", 15, 20),
		// Recorded under the already finished probe/map-cores span;
		// its interval puts it under probe/run.
		span(4, 3, "ilp/enumerate", 40, 10),
		// Two overlapping children: their union counts once.
		span(5, 1, "locate/reconstruct", 75, 20),
		span(6, 5, "ilp/solve", 78, 10),
		span(7, 5, "ilp/solve", 83, 10),
		{ID: 8, Parent: 2, Name: "probe/experiment-failed", Kind: "event", StartUS: 50},
	}
	nodes, roots := buildTree(recs, 0)
	if len(nodes) != 7 || len(roots) != 1 {
		t.Fatalf("got %d nodes and roots %v, want 7 nodes and one root", len(nodes), roots)
	}
	want := map[string]int64{
		"coremap/map-machine": 100 - 60 - 20,
		"probe/run":           60 - 20 - 10,
		"probe/map-cores":     20,
		"ilp/enumerate":       10,
		"locate/reconstruct":  20 - 15, // solves cover [78, 93]
	}
	for i, n := range nodes {
		if w, ok := want[n.name]; ok && selfTime(nodes, i) != w*1000 {
			t.Errorf("%s: self time %d ns, want %d µs", n.name, selfTime(nodes, i), w)
		}
	}

	// Without host timing the layers add up to the root span, plus the
	// 5 µs in which the two solves overlap: each counts it as its own.
	l := splitLayers(nodes, nil)
	var total int64
	for _, v := range l {
		total += v
	}
	if total != 105_000 {
		t.Errorf("layers sum to %d ns, want 105000", total)
	}

	// Host time moves from the span it fell in to the machine layer:
	// 3 µs inside probe/map-cores, 2 µs in probe/run's own time.
	bh := newBenchHost(nil, true)
	for _, op := range [][2]int64{{16_000, 17_000}, {20_000, 22_000}, {55_000, 57_000}} {
		bh.busy += op[1] - op[0]
		bh.ends = append(bh.ends, op[1])
		bh.cum = append(bh.cum, bh.busy)
	}
	l = splitLayers(nodes, bh.busyIn)
	if l[layerMachine] != 5_000 || l[layerStep1] != 17_000 || l[layerStep2] != 28_000 {
		t.Errorf("machine/step1/step2 = %d/%d/%d ns, want 5000/17000/28000",
			l[layerMachine], l[layerStep1], l[layerStep2])
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	var vals []float64
	for i := 1; i <= 200; i++ {
		vals = append(vals, float64(i))
	}
	q := percentile(vals, 90)
	if q.Value != 180 || q.N != 200 {
		t.Fatalf("p90 = %v over n=%d, want 180 over 200", q.Value, q.N)
	}
	if s := q.String(); !strings.Contains(s, "n=200") || !strings.Contains(s, "20 beyond") {
		t.Errorf("%q does not report the sample count", s)
	}
	if q := percentile(nil, 50); q.N != 0 || q.Value != 0 {
		t.Errorf("empty sample: %+v", q)
	}
}

func TestTallyCountsAgainstAttempted(t *testing.T) {
	tr := truth{
		osToCHA: []int{0, 1},
		pos:     []mesh.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 1, Col: 0}},
	}
	good := &coremap.Result{OSToCHA: []int{0, 1}, Pos: tr.pos}
	degraded := &coremap.Result{OSToCHA: []int{0, -1}, Pos: tr.pos, Degraded: true}
	wrongCHA := &coremap.Result{OSToCHA: []int{1, 0}, Pos: tr.pos}
	oneTileOff := &coremap.Result{OSToCHA: []int{0, 1},
		Pos: []mesh.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 2, Col: 2}}}

	var tl tally
	tl.add(good, nil, tr)
	tl.add(degraded, nil, tr)
	tl.add(wrongCHA, nil, tr)
	tl.add(nil, errors.New("host fault"), tr)
	tl.add(nil, cmerr.New(cmerr.Permanent, "locate", "no placement"), tr)
	tl.add(oneTileOff, nil, tr)
	if tl.attempted != 6 || tl.failed != 3 || tl.wrong != 2 || tl.degraded != 1 || tl.exact != 2 {
		t.Fatalf("tally %+v, want 6 attempted, 3 failed (2 wrong), 1 degraded, 2 exact", tl)
	}
	if tl.failedFrac() != 0.5 || tl.degradedFrac() != 1.0/6 || tl.exactFrac() != 1.0/3 {
		t.Errorf("fractions %v/%v/%v, want 1/2, 1/6, 1/3", tl.failedFrac(), tl.degradedFrac(), tl.exactFrac())
	}
	if got, want := tl.tileAcc(), (1+1+2.0/3)/6; got != want {
		t.Errorf("tile_acc %v, want %v", got, want)
	}
}

func TestSystematicPatternsKeepExpectedCounts(t *testing.T) {
	weights := []float64{53, 18, 5, 5, 1.36, 1.36}
	var total float64
	for _, w := range weights {
		total += w
	}
	for _, offset := range []float64{0, 0.3, 0.999} {
		counts := make([]int, len(weights))
		for _, idx := range systematicPatterns(weights, 50, offset) {
			counts[idx]++
		}
		for i, w := range weights {
			if exp := 50 * w / total; float64(counts[i]) < exp-1 || float64(counts[i]) > exp+1 {
				t.Errorf("offset %v: pattern %d drawn %d times, expected %.2f", offset, i, counts[i], exp)
			}
		}
	}
}
