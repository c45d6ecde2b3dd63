package ilp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Small-model generators shared by the brute-force cross-checks. Each
// draws its choices from draw(n), which returns a value in [0, n): a
// math/rand source for the quick-check tests, fuzz input bytes for
// FuzzSolveBruteForce. Every model stays small enough to enumerate.
var smallModels = []func(draw func(int) int) *Model{mixedModel, equalityChainModel}

// mixedModel draws up to five variables with mixed-sign ≤, ≥ and range
// rows and an objective over every variable.
func mixedModel(draw func(int) int) *Model {
	m := NewModel()
	nVars := 2 + draw(4)
	for i := 0; i < nVars; i++ {
		lo := int64(draw(3)) - 1
		m.NewVar("x", lo, lo+int64(draw(4)))
	}
	nCons := 1 + draw(4)
	for i := 0; i < nCons; i++ {
		var terms []Term
		for v := 0; v < nVars; v++ {
			if draw(2) == 0 {
				terms = append(terms, T(int64(draw(7))-3, Var(v)))
			}
		}
		if len(terms) == 0 {
			continue
		}
		rhs := int64(draw(11)) - 5
		switch draw(3) {
		case 0:
			m.AddLE("c", terms, rhs)
		case 1:
			m.AddGE("c", terms, rhs)
		default:
			m.AddRange("c", terms, rhs, rhs+int64(draw(3)))
		}
	}
	var obj []Term
	for v := 0; v < nVars; v++ {
		obj = append(obj, T(int64(draw(9))-4, Var(v)))
	}
	m.SetObjective(obj)
	return m
}

// equalityChainModel draws up to six variables linked by two-variable
// equality rows (kx - ky = 0, the shape the core-map formulation emits
// for every shared row or column) plus random ≤ rows and an objective.
func equalityChainModel(draw func(int) int) *Model {
	m := NewModel()
	n := 3 + draw(4)
	vars := make([]Var, n)
	for i := range vars {
		lo := int64(draw(3))
		vars[i] = m.NewVar("x", lo, lo+int64(1+draw(3)))
	}
	links := draw(4)
	for i := 0; i < links; i++ {
		a, b := vars[draw(n)], vars[draw(n)]
		if k := int64(1 + draw(2)); a != b {
			m.AddEq("eq", []Term{T(k, a), T(-k, b)}, 0)
		}
	}
	rows := 1 + draw(3)
	for i := 0; i < rows; i++ {
		var terms []Term
		for _, v := range vars {
			if draw(2) == 0 {
				terms = append(terms, T(int64(draw(5))-2, v))
			}
		}
		if len(terms) > 0 {
			m.AddLE("c", terms, int64(draw(9))-2)
		}
	}
	obj := make([]Term, n)
	for i, v := range vars {
		obj[i] = T(int64(draw(5))-2, v)
	}
	m.SetObjective(obj)
	return m
}

// bruteForceMismatch solves m with the given worker count and compares the
// result against exhaustive enumeration: an infeasible model must return
// ErrInfeasible, and a feasible one the proven optimum with exactly the
// lexicographically smallest optimal value vector. It returns nil when
// they agree.
func bruteForceMismatch(m *Model, workers int) error {
	want, wantObj, feasible := bruteForce(m)
	sol, err := Solve(context.Background(), m, Options{Workers: workers})
	if !feasible {
		if !errors.Is(err, ErrInfeasible) {
			return fmt.Errorf("workers=%d: infeasible model returned %v, want ErrInfeasible", workers, err)
		}
		return nil
	}
	switch {
	case err != nil:
		return fmt.Errorf("workers=%d: feasible model returned %v (brute force %v)", workers, err, want)
	case !sol.Optimal:
		return fmt.Errorf("workers=%d: small model not proven optimal", workers)
	case sol.Objective != wantObj:
		return fmt.Errorf("workers=%d: objective %d, brute force %d", workers, sol.Objective, wantObj)
	case !reflect.DeepEqual(sol.Values, want):
		return fmt.Errorf("workers=%d: values %v, brute-force lex-min optimum %v", workers, sol.Values, want)
	}
	return nil
}

// byteDraw turns fuzz input into generator draws: each draw consumes one
// byte modulo n, and an exhausted input draws zeros.
func byteDraw(data []byte) func(int) int {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

// recordedInput returns the fuzz input that replays generator gen on a
// math/rand source seeded with seed: the generator index, then every
// draw as one byte (all draws are below 256, so byteDraw reproduces them
// exactly).
func recordedInput(gen int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	in := []byte{byte(gen)}
	smallModels[gen](func(n int) int {
		v := r.Intn(n)
		in = append(in, byte(v))
		return v
	})
	return in
}

// FuzzSolveBruteForce checks the solver against brute force on small
// models decoded from the fuzz input, at one and at four workers. The
// seed corpus replays both generators on fixed seeds, so a plain go test
// run checks those models too. Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzSolveBruteForce$' -fuzztime 30s ./internal/ilp/
func FuzzSolveBruteForce(f *testing.F) {
	for gen := range smallModels {
		for seed := int64(1); seed <= 64; seed++ {
			f.Add(recordedInput(gen, seed))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := smallModels[int(data[0])%len(smallModels)](byteDraw(data[1:]))
		for _, w := range []int{1, 4} {
			if err := bruteForceMismatch(m, w); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestRecordedInputReplaysGenerator pins the seed-corpus encoding: the
// recorded bytes must rebuild exactly the model the generator draws from
// math/rand, or the fuzz seeds would silently check different models.
func TestRecordedInputReplaysGenerator(t *testing.T) {
	for gen, build := range smallModels {
		for seed := int64(1); seed <= 16; seed++ {
			want := build(rand.New(rand.NewSource(seed)).Intn)
			got := build(byteDraw(recordedInput(gen, seed)[1:]))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("generator %d seed %d: replayed model differs", gen, seed)
			}
		}
	}
}
