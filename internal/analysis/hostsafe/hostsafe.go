// Package hostsafe enforces the host-access and randomness discipline of
// the measurement pipeline. Three rules:
//
//   - decorator rule: the MSR/PMON/memory operations of hostif.Host
//     (ReadMSR, WriteMSR, Load, TimedLoad, Store, Flush) may be invoked
//     only from the packages that implement or decorate the boundary —
//     hostif (the Counting decorator), probe (the host-op decorator and
//     the measurement loops running behind it),
//     machine (the simulator) and faulty (the fault injector). Everyone
//     else calling through the raw interface bypasses per-operation
//     context checks and transient-fault retry, which is exactly how an
//     uncancellable, flaky measurement path gets reintroduced.
//
//   - seeded-rand rule (every package): no math/rand global-source
//     functions (rand.Intn, rand.Shuffle, rand.Seed, ...) and no RNG
//     seeded from the clock (rand.NewSource(time.Now()...)). Every RNG in
//     a deterministic path must be rand.New(rand.NewSource(seed)) with a
//     seed that is part of the experiment's configuration, or the
//     content-addressed caches would fingerprint irreproducible runs.
//
//   - injected-clock rule (every package except the recorded
//     exemptions in ClockExempt): no direct time.Now/time.Since/
//     time.Until. Pipeline code reads wall time only through the
//     injected obs.Clock (obs.Config.Clock), which is what lets the
//     telemetry determinism tests swap in a fake clock and assert
//     byte-identical traces. A direct clock read would make span
//     timings — and anything derived from them — untestable.
//
// The decorator and clock rules derive their rosters from exemption
// maps keyed by import path (HostOpExempt, ClockExempt) rather than
// hand-maintained include lists: a new package is covered from its
// first commit, and TestRosterCoverage verifies every exemption names a
// live package and records a reason.
package hostsafe

import (
	"go/ast"
	"go/types"

	"coremap/internal/analysis"
)

// Analyzer is the hostsafe check.
var Analyzer = &analysis.Analyzer{
	Name: "hostsafe",
	Doc: "flags raw hostif.Host operations outside the sanctioned decorator packages, " +
		"math/rand usage without an explicit deterministic source, " +
		"and direct wall-clock reads outside the recorded exemptions",
	Run: run,
	Scope: &analysis.Scope{
		Doc: "every internal library package; the decorator and clock rules honor per-rule exemption maps",
		Exclude: map[string]string{
			"coremap/internal/analysis/...": "the lint suite itself: batch AST tooling with no host access, randomness or span timing",
		},
	},
}

// hostOps are the Host operations covered by the decorator rule.
// NumCPUs is deliberately absent: it is immutable metadata, not a
// measurement operation.
var hostOps = map[string]bool{
	"ReadMSR": true, "WriteMSR": true,
	"Load": true, "TimedLoad": true, "Store": true, "Flush": true,
}

// HostOpExempt maps the packages allowed to invoke the raw hostif
// operations to the reason each one is the boundary rather than a user
// of it. Everyone else must route through the decorators.
var HostOpExempt = map[string]string{
	"coremap/internal/hostif":  "defines the boundary: the Counting decorator forwards every raw operation it counts",
	"coremap/internal/probe":   "the host-op decorator (context check and retry) and the measurement loops that run behind it",
	"coremap/internal/machine": "the in-memory simulator implements Host; its bodies are the operations",
	"coremap/internal/faulty":  "the fault injector decorates an inner Host and must forward raw operations",
}

// ClockExempt maps the packages allowed to read the wall clock directly
// to the reason. Everyone else takes the injected obs.Clock.
var ClockExempt = map[string]string{
	"coremap/internal/obs":      "implements the injected Clock: the real systemClock must call time.Now somewhere",
	"coremap/internal/baseline": "wall-clock benchmark harness by design: it measures real elapsed time",
}

// clockFuncs are the time package's wall-clock reads covered by the
// injected-clock rule.
var clockFuncs = []string{"Now", "Since", "Until"}

// randGlobals are the math/rand package-level functions that draw from
// the shared, clock-seeded global source.
var randGlobals = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint": true, "N": true,
}

func run(pass *analysis.Pass) error {
	path := analysis.EffectivePath(pass)
	_, hostExempt := HostOpExempt[path]
	_, clockExempt := ClockExempt[path]
	checkHostOps := !hostExempt
	checkClocks := !clockExempt
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if checkHostOps {
				checkHostOp(pass, call)
			}
			checkRand(pass, call)
			if checkClocks {
				checkClock(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkClock flags direct wall-clock reads outside ClockExempt.
func checkClock(pass *analysis.Pass, call *ast.CallExpr) {
	for _, name := range clockFuncs {
		if analysis.CalleeIs(pass, call, "time", name) {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock directly: take an injected obs.Clock (obs.Config.Clock) so telemetry stays deterministic under a fake clock",
				name)
			return
		}
	}
}

// checkHostOp flags a covered operation invoked on a hostif.Host value.
func checkHostOp(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !hostOps[sel.Sel.Name] {
		return
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return
	}
	if analysis.IsNamedType(t, "coremap/internal/hostif", "Host") {
		pass.Reportf(call.Pos(),
			"raw hostif %s call bypasses the probe's host-op decorator (context check and retry): route the operation through probe.Prober",
			sel.Sel.Name)
	}
}

// checkRand flags global-source math/rand calls and clock-seeded
// sources.
func checkRand(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	// Methods on an explicit *rand.Rand are fine; only package-level
	// functions touch the global source.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	if randGlobals[fn.Name()] {
		pass.Reportf(call.Pos(),
			"rand.%s draws from the global math/rand source: use rand.New(rand.NewSource(seed)) with a configured seed (determinism)",
			fn.Name())
		return
	}
	// rand.New(rand.NewSource(time.Now()...)) reports once, on the
	// source constructor, which is where the clock enters.
	if fn.Name() == "NewSource" || fn.Name() == "NewPCG" {
		if arg := clockSeedArg(pass, call); arg != "" {
			pass.Reportf(call.Pos(),
				"RNG seeded from %s is irreproducible: derive the seed from the experiment configuration",
				arg)
		}
	}
}

// clockSeedArg reports the clock call used inside any seed argument
// ("time.Now" style), or "".
func clockSeedArg(pass *analysis.Pass, call *ast.CallExpr) string {
	label := ""
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if label != "" {
				return false
			}
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if analysis.CalleeIs(pass, inner, "time", "Now") {
				label = "time.Now()"
				return false
			}
			return true
		})
	}
	return label
}
