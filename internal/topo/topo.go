// Package topo defines the pluggable interconnect-topology backend
// interface behind the locating pipeline, plus the process-wide backend
// registry.
//
// The paper's inference recipe — observe traffic through a shared
// interconnect, emit placement constraints from each observation, solve
// an ILP for the only layout consistent with all of them — is not
// specific to the Skylake mesh. A Backend bundles everything the recipe
// needs from a substrate:
//
//   - substrate construction from a SKU descriptor (the backend's own
//     catalog — mesh Xeons, ring client dies, harvested NoC parts);
//   - the routing/observation model: what a (src, dst) probe charges
//     where, exposed to the adaptive planner through Predictor;
//   - an ILP constraint emitter mapping observations to solver rows
//     (the mesh emitter lives in internal/locate; ring and noc own
//     theirs); and
//   - a seeded end-to-end survey (QuickSurvey) that measures, solves and
//     scores one instance — the unit the experiments matrix, the CI
//     smoke job and the per-backend benchmarks all drive.
//
// Backends register themselves from package init; importing
// internal/topo/backends links the full roster. locate.Fingerprint keys
// its cache on Kind so reconstructions never alias across substrates.
package topo

import (
	"context"
	"sort"

	"coremap/internal/cmerr"
	"coremap/internal/mesh"
)

// stage tags every error this package classifies.
const stage = "topo"

// Kind enumerates the supported interconnect substrates. The zero value
// is the mesh, so pre-refactor zero-valued inputs keep meaning the
// Skylake mesh pipeline.
type Kind uint8

const (
	// KindMesh is the paper's 2-D mesh with Y-then-X dimension-order
	// routing and per-tile ring-ingress counters.
	KindMesh Kind = iota
	// KindRing is a slotted bidirectional ring where the observable is
	// contention between (attacker, victim) agent pairs whose ring
	// segments overlap.
	KindRing
	// KindNoC is a harvested NoC grid with physical↔NoC coordinate
	// remap tables, disabled rows and fixed-function tiles at known
	// coordinates acting as free anchors.
	KindNoC
	numKinds
)

// String returns the -topology flag spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindMesh:
		return "mesh"
	case KindRing:
		return "ring"
	case KindNoC:
		return "noc"
	}
	return "unknown"
}

// ParseKind resolves a -topology flag value.
func ParseKind(s string) (Kind, error) {
	for k := KindMesh; k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, cmerr.New(cmerr.Permanent, stage, "unknown topology %q (use mesh, ring or noc)", s)
}

// Channel identifies which ingress counter a tile charges for a flow, in
// the planner's encoding. The byte values are load-bearing: they enter
// plan's predictKey byte keys, and the mesh backend must keep producing
// keys identical to the pre-refactor planner.
type Channel byte

const (
	// ChanNone marks a tile that is not a receiving tile of the route.
	ChanNone Channel = iota
	// ChanUp and ChanDown are the vertical ingress channels.
	ChanUp
	ChanDown
	// ChanHorz is either horizontal channel (odd-column mirroring makes
	// the true direction unobservable, so the planner folds them).
	ChanHorz
)

// Hop is one receiving tile of a flow and the counter it charges (never
// ChanNone).
type Hop struct {
	Tile mesh.Coord
	Chan Channel
}

// Predictor is a backend's exact observation model as the adaptive
// planner consumes it, one flow at a time: Route appends to hops every
// receiving tile of the flow src → dst with the counter it charges, and
// returns the extended slice. Each tile appears at most once; tiles off
// the route, and src itself, do not appear. Every hop lies in the
// rectangle spanned by src and dst, so on-grid endpoints give on-grid
// hops (the planner indexes its cell tables with them). The caller owns
// the buffer, so a planner scoring thousands of flows allocates nothing
// per call. Predictors must be stateless and deterministic — the
// planner partitions surviving placements by predicted outcome, and two
// placements must compare equal exactly when the substrate cannot tell
// them apart.
type Predictor interface {
	Route(hops []Hop, src, dst mesh.Coord) []Hop
}

// SurveyResult is one backend survey: a seeded instance measured,
// reconstructed and scored against its own ground truth.
type SurveyResult struct {
	// Backend and SKU identify what was surveyed.
	Backend, SKU string
	// Agents is the number of placement unknowns (CHAs, ring agents,
	// NoC workers).
	Agents int
	// Observations is the number of measurements the survey used.
	Observations int
	// HostOps is the backend's host-operation (or sample) count.
	HostOps int64
	// Placement maps agent ID → recovered coordinate (ring backends use
	// Col as the slot index with Row 0).
	Placement []mesh.Coord
	// Exact reports that the placement matches ground truth exactly.
	Exact bool
	// Optimal reports that the solver proved optimality.
	Optimal bool
	// Rendered is a printable map of the placement.
	Rendered string
}

// Backend is one interconnect substrate behind the pipeline.
type Backend interface {
	// Kind is the backend's registry key and cache discriminator.
	Kind() Kind
	// Name is the -topology flag value; it must equal Kind().String().
	Name() string
	// Catalog lists the backend's SKU descriptor names.
	Catalog() []string
	// DefaultSKU names the catalog entry QuickSurvey uses for "".
	DefaultSKU() string
	// Predictor returns the backend's planner-facing observation model,
	// or nil when the backend's survey is exhaustive-only (no adaptive
	// planner integration).
	Predictor() Predictor
	// QuickSurvey builds the named SKU (""=DefaultSKU) seeded instance,
	// runs the backend's measurement campaign and constraint emitter,
	// solves for the placement, and scores it against ground truth.
	QuickSurvey(ctx context.Context, sku string, seed int64) (*SurveyResult, error)
}

// registry holds the linked backends, keyed by Kind.
var registry = map[Kind]Backend{}

// Register installs a backend, panicking on duplicates or on a backend
// whose Name disagrees with its Kind (both are programmer errors — the
// registry is populated from package init only).
func Register(b Backend) {
	if b.Name() != b.Kind().String() {
		panic("topo: backend name " + b.Name() + " does not match kind " + b.Kind().String())
	}
	if _, dup := registry[b.Kind()]; dup {
		panic("topo: duplicate backend " + b.Name())
	}
	registry[b.Kind()] = b //lint:allow toposafe Register is the registration API itself; toposafe pins every caller into init
}

// Get returns the backend registered for a kind.
func Get(k Kind) (Backend, bool) {
	b, ok := registry[k]
	return b, ok
}

// Lookup resolves a -topology flag value to its registered backend.
func Lookup(name string) (Backend, error) {
	k, err := ParseKind(name)
	if err != nil {
		return nil, err
	}
	b, ok := registry[k]
	if !ok {
		return nil, cmerr.New(cmerr.Permanent, stage, "topology %q is not linked into this binary (import internal/topo/backends)", name)
	}
	return b, nil
}

// Names lists the registered backend names in sorted order.
func Names() []string {
	var names []string
	for k := KindMesh; k < numKinds; k++ {
		if _, ok := registry[k]; ok {
			names = append(names, k.String())
		}
	}
	sort.Strings(names)
	return names
}
