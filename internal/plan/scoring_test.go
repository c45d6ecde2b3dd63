package plan

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"coremap/internal/mesh"
	"coremap/internal/topo"
	"coremap/internal/topo/meshroute"
)

// classifyKey is the reference prediction key: the per-tile
// meshroute.Classify specification folded over every CHA of placement
// p in ascending order, emitting (channel, CHA) for each observer.
// predictKey must produce the same bytes from the route walk.
func classifyKey(pl *Planner, c Candidate, p []mesh.Coord) string {
	src, dst := pl.routeEndpoints(c, p)
	var key []byte
	for k, t := range p {
		if ch := meshroute.Classify(src, dst, t); ch != topo.ChanNone {
			key = append(key, byte(ch), byte(k))
		}
	}
	return string(key)
}

// referenceBlocks partitions the survivors by c's reference key and
// returns the number of blocks and the largest block.
func referenceBlocks(pl *Planner, c Candidate) (blocks, maxBlock int) {
	counts := make(map[string]int)
	for _, p := range pl.survivors {
		counts[classifyKey(pl, c, p)]++
	}
	for _, n := range counts {
		maxBlock = max(maxBlock, n)
	}
	return len(counts), maxBlock
}

// referencePick is the scoring oracle: every candidate that was
// unmeasured when the round was scored (now unmeasured or pending) is
// partitioned in full with the reference keys — no dead pool, no early
// abandon — and the splitting ones are fully sorted by (largest block,
// pool index). It returns the first BatchSize of them.
func referencePick(pl *Planner) []int {
	var scored []scoredCand
	for ci, st := range pl.state {
		if st != candUnmeasured && st != candPending {
			continue
		}
		if blocks, maxBlock := referenceBlocks(pl, pl.cands[ci]); blocks > 1 {
			scored = append(scored, scoredCand{idx: ci, score: maxBlock})
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].score != scored[j].score {
			return scored[i].score < scored[j].score
		}
		return scored[i].idx < scored[j].idx
	})
	var pick []int
	for i := 0; i < len(scored) && i < pl.opts.BatchSize; i++ {
		pick = append(pick, scored[i].idx)
	}
	return pick
}

// survey is one planner instance drawn for the scoring checks: a grid with
// its IMCs, an all-distinct ground-truth placement of the CHAs on the
// other cells, and the probe's candidate families in the probe's pool
// order — ordered core pairs, then slice fills and requests for every
// (LLC-only CHA, core) pair, then memory fills from every IMC.
type survey struct {
	opts  Options
	truth []mesh.Coord
	cands []Candidate
}

// drawSurvey builds a survey on a rows×cols grid with the given IMCs and
// numbers of cores and LLC-only CHAs, placed on the IMC-free cells by
// rng. The grid must have room for them.
func drawSurvey(rng *rand.Rand, rows, cols, cores, llcOnly int, imcs []mesh.Coord) survey {
	s := survey{opts: Options{Rows: rows, Cols: cols, IMCPositions: imcs}}
	for _, i := range rng.Perm(rows * cols) {
		if t := (mesh.Coord{Row: i / cols, Col: i % cols}); len(s.truth) < cores+llcOnly && !slices.Contains(imcs, t) {
			s.truth = append(s.truth, t)
		}
	}
	for src := 0; src < cores; src++ {
		for dst := 0; dst < cores; dst++ {
			if src != dst {
				s.cands = append(s.cands, Candidate{Kind: KindPair, SrcCHA: src, DstCHA: dst, SrcCPU: src, DstCPU: dst})
			}
		}
	}
	for sl := cores; sl < cores+llcOnly; sl++ {
		for core := 0; core < cores; core++ {
			s.cands = append(s.cands,
				Candidate{Kind: KindSlice, SrcCHA: sl, DstCHA: core, SrcCPU: -1, DstCPU: core},
				Candidate{Kind: KindRequest, SrcCHA: core, DstCHA: sl, SrcCPU: core, DstCPU: -1})
		}
	}
	for imc := range imcs {
		for core := 0; core < cores; core++ {
			s.cands = append(s.cands, Candidate{Kind: KindMemory, SrcCHA: -1, DstCHA: core, IMC: imc, SrcCPU: -1, DstCPU: core})
		}
	}
	return s
}

// FuzzPlannerScoring drives the planner to convergence against the true
// observations of a fuzzer-drawn survey on a grid of up to 8×6. At every
// scored round the returned batch must equal referencePick on the same
// survivors, and every candidate marked dead must still predict one
// observation on all current survivors. The arguments pick the grid
// (1–8 rows, 1–6 columns), 2–24 cores, 0–2 LLC-only CHAs and 0–2 IMCs
// (both from mix) and the placement seed; the seed corpus covers the
// 4×6, 5×6 (Skylake) and 8×6 (Ice Lake) shapes. Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzPlannerScoring$' -fuzztime 30s ./internal/plan/
func FuzzPlannerScoring(f *testing.F) {
	for _, shape := range [][2]uint8{{4, 6}, {5, 6}, {8, 6}} {
		for _, chas := range []uint8{10, 22} {
			for _, mix := range []uint8{0, 4, 8} {
				f.Add(shape[0], shape[1], chas, mix, int64(chas)+int64(mix))
			}
		}
	}
	f.Fuzz(func(t *testing.T, rows, cols, chas, mix uint8, seed int64) {
		r, c := 1+int(rows-1)%8, 1+int(cols-1)%6
		cores, llcOnly, nIMC := 2+int(chas)%23, int(mix%3), int(mix/3%3)
		if cores+llcOnly+nIMC > r*c {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		var imcs []mesh.Coord
		for _, i := range rng.Perm(r * c)[:nIMC] {
			imcs = append(imcs, mesh.Coord{Row: i / c, Col: i % c})
		}
		s := drawSurvey(rng, r, c, cores, llcOnly, imcs)
		// A tight node budget keeps each input quick; an overrun only
		// postpones materialization.
		s.opts.MaxNodes = 100_000
		pl, err := New(s.opts, len(s.truth), s.cands)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; ; round++ {
			if round > 10_000 {
				t.Fatal("planner failed to terminate")
			}
			batch, err := pl.NextBatch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if pl.survivors != nil {
				if want := referencePick(pl); !reflect.DeepEqual(batch, want) && len(batch)+len(want) > 0 {
					t.Fatalf("round %d over %d survivors: batch %v, reference %v", round, len(pl.survivors), batch, want)
				}
				for ci, dead := range pl.dead {
					if blocks, _ := referenceBlocks(pl, pl.cands[ci]); dead && blocks != 1 {
						t.Fatalf("round %d: dead candidate %d has %d blocks on %d survivors", round, ci, blocks, len(pl.survivors))
					}
				}
			}
			if len(batch) == 0 {
				break
			}
			for _, ci := range batch {
				pl.Observe(ci, trueObs(pl, pl.Candidate(ci), s.truth))
			}
		}
		if st := pl.Stats(); st.Fallback || st.Measured+st.Skipped != len(s.cands) {
			t.Fatalf("survey ended badly: %+v over %d candidates", st, len(s.cands))
		}
	})
}

// BenchmarkScoreAndPick times one full scoring round on an 8259CL-sized
// survey as coremap.MapMachine plans it by default: a 5×6 grid with the
// two IMC tiles, 24 cores and 2 LLC-only CHAs, pair, slice and request
// candidates but no memory-anchored ones, driven against a seeded ground
// truth up to its first scored round. Each iteration repeats that round:
// every candidate still unmeasured is scored against the freshly
// materialized survivors, with an empty dead pool.
func BenchmarkScoreAndPick(b *testing.B) {
	s := drawSurvey(rand.New(rand.NewSource(1)), 5, 6, 24, 2, []mesh.Coord{{Row: 1, Col: 0}, {Row: 1, Col: 5}})
	s.cands = slices.DeleteFunc(s.cands, func(c Candidate) bool { return c.Kind == KindMemory })
	pl, err := New(s.opts, len(s.truth), s.cands)
	if err != nil {
		b.Fatal(err)
	}
	for {
		batch, err := pl.NextBatch(context.Background())
		if err != nil || len(batch) == 0 {
			b.Fatalf("survey ended before a scored round: %v", err)
		}
		if pl.survivors != nil {
			break // batch is the first scored round's pick
		}
		for _, ci := range batch {
			pl.Observe(ci, trueObs(pl, pl.Candidate(ci), s.truth))
		}
	}
	var remaining []int
	for ci, st := range pl.state {
		if st == candUnmeasured || st == candPending {
			remaining = append(remaining, ci)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(pl.dead)
		pl.converged = false
		benchBatch = pl.scoreAndPick(remaining)
	}
	b.ReportMetric(float64(len(pl.survivors)), "survivors")
	b.ReportMetric(float64(len(remaining)), "candidates")
}

var benchBatch []int
