package ilp

import (
	"context"
	"fmt"
	"testing"
)

// Solve returns the lexicographically smallest optimal value vector, so
// its answer depends only on the feasible set and the objective, not on
// how the constraints are written. The tests here restate corpus models
// in the redundant shapes the solver once folded away before searching —
// duplicate rows over one linear form, single-variable rows that repeat a
// bound, variables tied together by x - y = 0 — and require the same
// Solution.Values as the plain model.

// copyVars returns a model with m's variables (same order, names and
// bounds) and no constraints or objective.
func copyVars(m *Model) *Model {
	out := NewModel()
	for v := range m.lo {
		out.NewVar(m.names[v], m.lo[v], m.hi[v])
	}
	return out
}

// copyRowsAndObjective adds m's constraints and objective to out, whose
// variables must include m's under the same indices.
func copyRowsAndObjective(out, m *Model) {
	for _, c := range m.cons {
		out.AddRange(c.label, c.terms, c.lo, c.hi)
	}
	if len(m.obj) > 0 {
		out.SetObjective(m.obj)
	}
}

// redundantForm returns m with every constraint stated twice — the second
// time with its terms reversed — and every variable bound restated as a
// single-variable row. The variables and the feasible set are m's.
func redundantForm(m *Model) *Model {
	out := copyVars(m)
	copyRowsAndObjective(out, m)
	for _, c := range m.cons {
		rev := make([]Term, len(c.terms))
		for i, t := range c.terms {
			rev[len(rev)-1-i] = t
		}
		out.AddRange(c.label+"-dup", rev, c.lo, c.hi)
	}
	for v := range m.lo {
		out.AddRange("bound", []Term{T(1, Var(v))}, m.lo[v], m.hi[v])
	}
	return out
}

// aliasedForm returns m followed by one alias variable per original
// variable, tied to it by the equality alias - x = 0. The aliases come
// after every original variable and stay out of the objective, so the
// optimum and the lexicographic order over the originals are m's.
func aliasedForm(m *Model) *Model {
	out := copyVars(m)
	copyRowsAndObjective(out, m)
	for v := range m.lo {
		a := out.NewVar(m.names[v]+"-alias", m.lo[v], m.hi[v])
		out.AddEq("alias", []Term{T(1, a), T(-1, Var(v))}, 0)
	}
	return out
}

// sameSolution fails t unless sol (err) agrees with the reference ref
// (refErr): both infeasible, or the same objective and the same values on
// the first len(ref.Values) variables.
func sameSolution(t *testing.T, what string, ref *Solution, refErr error, sol *Solution, err error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: err=%v, plain model err=%v", what, err, refErr)
	}
	if err != nil {
		return
	}
	if sol.Objective != ref.Objective {
		t.Fatalf("%s: objective %d, plain model %d", what, sol.Objective, ref.Objective)
	}
	for i := range ref.Values {
		if sol.Values[i] != ref.Values[i] {
			t.Fatalf("%s: values disagree at var %d: %d vs %d (plain model)",
				what, i, sol.Values[i], ref.Values[i])
		}
	}
}

// requireAliasesMatch fails t unless every alias in a solution of
// aliasedForm(m) equals its original, m having n variables.
func requireAliasesMatch(t *testing.T, what string, sol *Solution, n int) {
	t.Helper()
	for v := 0; v < n; v++ {
		if sol.Values[n+v] != sol.Values[v] {
			t.Fatalf("%s: alias of var %d is %d, var is %d", what, v, sol.Values[n+v], sol.Values[v])
		}
	}
}

// TestSolveDeterministicAcrossReduce: duplicate rows and restated bounds
// change how the search runs but must not change what Solve returns.
func TestSolveDeterministicAcrossReduce(t *testing.T) {
	for _, cm := range corpus() {
		t.Run(cm.name, func(t *testing.T) {
			ref, refErr := Solve(context.Background(), cm.build(), Options{Workers: 1})
			sol, err := Solve(context.Background(), redundantForm(cm.build()), Options{Workers: 1})
			sameSolution(t, "redundant form", ref, refErr, sol, err)
			if err == nil && len(sol.Values) != len(ref.Values) {
				t.Fatalf("redundant form has %d values, plain model %d", len(sol.Values), len(ref.Values))
			}
		})
	}
}

// TestSolveNoPresolveStillWorks: with no equality-merging presolve the
// search carries every equality-tied variable itself, and must still
// return the plain model's solution on the whole corpus.
func TestSolveNoPresolveStillWorks(t *testing.T) {
	for _, cm := range corpus() {
		ref, refErr := Solve(context.Background(), cm.build(), Options{Workers: 1})
		sol, err := Solve(context.Background(), aliasedForm(cm.build()), Options{Workers: 1})
		sameSolution(t, cm.name+" aliased", ref, refErr, sol, err)
		if err == nil {
			requireAliasesMatch(t, cm.name+" aliased", sol, cm.build().NumVars())
		}
	}
}

// TestSolveDeterministicNoPresolve: the aliased placement model, whose
// tied variables widen the vector the lexicographic tie-break ranges
// over, must solve identically at every worker count.
func TestSolveDeterministicNoPresolve(t *testing.T) {
	model := func() *Model { return placementModel(4, 3, 4) }
	ref, err := Solve(context.Background(), model(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		sol, err := Solve(context.Background(), aliasedForm(model()), Options{Workers: w})
		what := fmt.Sprintf("aliased, workers=%d", w)
		sameSolution(t, what, ref, nil, sol, err)
		requireAliasesMatch(t, what, sol, model().NumVars())
	}
}
