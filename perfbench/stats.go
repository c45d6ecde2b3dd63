package main

import (
	"fmt"
	"math"
	"slices"

	"coremap"
	"coremap/internal/cmerr"
	"coremap/internal/locate"
	"coremap/internal/mesh"
)

// quantile is a percentile of a sample together with the sample count it
// was taken from; the two are always reported together.
type quantile struct {
	P     float64 // percentile, 0..100
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile of vals.
func percentile(vals []float64, p float64) quantile {
	q := quantile{P: p, N: len(vals)}
	if len(vals) == 0 {
		return q
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	q.Value = s[min(max(rank, 1), len(s))-1]
	return q
}

// String renders the percentile with its sample count and how many
// samples lie beyond it.
func (q quantile) String() string {
	beyond := q.N - int(math.Ceil(q.P/100*float64(q.N)))
	return fmt.Sprintf("p%g=%.4g (n=%d, %d beyond)", q.P, q.Value, q.N, beyond)
}

// median returns the median of vals (0 for an empty sample).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// truth is a chip's ground truth from the simulator.
type truth struct {
	osToCHA []int
	pos     []mesh.Coord // CHA ID → tile
}

// tally counts map outcomes against maps attempted.
type tally struct {
	attempted int
	failed    int // hard error, or OSToCHA disagreeing with the truth on a mapped CPU
	wrong     int // of failed: a wrong OSToCHA, or an error outside the cmerr taxonomy
	degraded  int // returned Degraded
	exact     int // equal to the truth up to mirror and translation
	tiles     float64
}

// add scores one MapMachine outcome against the chip's ground truth.
func (t *tally) add(res *coremap.Result, err error, tr truth) {
	t.attempted++
	if err != nil || res == nil {
		t.failed++
		if cmerr.ClassOf(err) == nil {
			t.wrong++
		}
		return
	}
	if !mappedAgree(res.OSToCHA, tr.osToCHA) {
		t.failed++
		t.wrong++
		return
	}
	if res.Degraded {
		t.degraded++
	}
	exact, correct := locate.Score(res.Pos, tr.pos)
	if exact {
		t.exact++
	}
	t.tiles += float64(correct) / float64(len(tr.pos))
}

// mappedAgree reports whether every CPU the map assigns a CHA to has its
// true CHA.
func mappedAgree(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for cpu, cha := range got {
		if cha >= 0 && cha != want[cpu] {
			return false
		}
	}
	return true
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.degraded += o.degraded
	t.exact += o.exact
	t.tiles += o.tiles
}

func (t tally) frac(n int) float64 { return float64(n) / float64(max(t.attempted, 1)) }

func (t tally) failedFrac() float64   { return t.frac(t.failed) }
func (t tally) degradedFrac() float64 { return t.frac(t.degraded) }
func (t tally) exactFrac() float64    { return t.frac(t.exact) }
func (t tally) tileAcc() float64      { return t.tiles / float64(max(t.attempted, 1)) }
