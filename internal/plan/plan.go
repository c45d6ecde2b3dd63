// Package plan implements the adaptive measurement planner: instead of
// surveying every ordered core pair (O(n²) experiments per map), the
// planner interleaves probing and solving — it maintains the set of
// placements still consistent with the observations collected so far,
// scores the unmeasured experiments by how evenly their predicted
// outcome splits that set, and emits the next measurement batch. The
// survey stops as soon as no remaining experiment can distinguish any
// two surviving placements, at which point the measured subset carries
// exactly the information content of the exhaustive sweep and the
// reconstruction is byte-identical to it.
//
// The planner never talks to hardware. internal/probe owns candidate
// construction and experiment execution and drives the planner through
// NextBatch / Observe / Fail; this package owns the placement bookkeeping:
//
//   - a lean binary-free ILP over the row/column position variables whose
//     bounded enumeration (ilp.Enumerate) materializes the surviving
//     placement set once ambiguity drops under Options.AmbiguityCap;
//   - an exact observation predictor — the topology backend's routing
//     model (Options.Predictor, defaulting to the mesh backend's
//     Y-then-X dimension-order meshroute.Predictor), walked one route
//     per survivor — used to partition survivors by predicted outcome;
//   - the mesh observation encoding (meshroute.Encode), the one
//     description locate's ILP is built from: its facts become the lean
//     model's rows, its horizontal records the enumeration's accept and
//     prune filters, and its evaluator (meshroute.Holds) filters the
//     survivors as measurements arrive.
//
// # Correctness contract
//
// Survivors are filtered by *constraint* consistency, never by predicted
// equality: the encoding is necessary-but-not-sufficient (it does not,
// for example, forbid on-path tiles missing from an observer list), and
// the planner and the reconstruction read the same encoding, so the
// surviving set is always a superset of the final ILP's feasible
// placements and can never exclude the exhaustive survey's optimum. The
// convergence test — every unmeasured candidate's predicted observation
// is identical across all survivors — then guarantees that measuring the
// rest would add constraints every survivor already satisfies, which is
// what makes the planned map byte-identical to the exhaustive one.
//
// Degradation is monotone toward the exhaustive survey: candidates whose
// experiments fail permanently are dropped (no observation, no filter),
// and if the surviving set ever empties — a prediction-model mismatch, a
// corrupted observation — the planner falls back to measuring everything
// that remains, which is the exhaustive sweep by definition.
package plan

import (
	"context"

	"coremap/internal/cmerr"
	"coremap/internal/ilp"
	"coremap/internal/mesh"
	"coremap/internal/topo"
	"coremap/internal/topo/meshroute"
)

// stage tags every error this package classifies.
const stage = "plan"

// Kind identifies the experiment family of a candidate, mirroring the
// four families of probe.RunWith.
type Kind uint8

const (
	// KindPair is a store/load bounce between two mapped cores
	// (src core tile → sink core tile on the BL data ring).
	KindPair Kind = iota
	// KindSlice streams fills from an LLC-only slice to a core
	// (slice tile → core tile).
	KindSlice
	// KindRequest streams miss requests from a core to an LLC-only
	// slice on the AD ring (core tile → slice tile).
	KindRequest
	// KindMemory streams fills from a memory controller at a known die
	// position to a core (IMC tile → core tile).
	KindMemory
)

// Op returns the probe failure-record label of the family.
func (k Kind) Op() string {
	switch k {
	case KindPair:
		return "pair"
	case KindSlice:
		return "slice"
	case KindRequest:
		return "request"
	case KindMemory:
		return "memory"
	}
	return "unknown"
}

// Candidate is one runnable experiment. SrcCHA/DstCHA are the traffic
// route endpoints (source first, matching probe.Observation); the CPU
// fields carry whatever the executing prober needs to drive the
// experiment and are opaque to the planner.
type Candidate struct {
	Kind Kind
	// SrcCHA is the traffic source CHA; -1 for KindMemory, whose source
	// is the memory controller IMC.
	SrcCHA int
	// DstCHA is the traffic destination CHA.
	DstCHA int
	// IMC indexes Options.IMCPositions for KindMemory candidates.
	IMC int
	// SrcCPU and DstCPU are the OS CPUs backing the endpoints (-1 when
	// the endpoint is not a core).
	SrcCPU, DstCPU int
}

// Options configures a Planner.
type Options struct {
	// Rows and Cols are the die grid dimensions (required).
	Rows, Cols int
	// IMCPositions are the known memory-controller die coordinates,
	// indexed by Candidate.IMC / meshroute.Observation.SrcIMC. Each must
	// lie on the grid.
	IMCPositions []mesh.Coord
	// AmbiguityCap bounds the surviving-placement set the planner is
	// willing to materialize: while more placements than this remain
	// consistent, it keeps seeding broad measurements instead of
	// enumerating. 0 selects DefaultAmbiguityCap.
	AmbiguityCap int
	// BatchSize is the number of experiments emitted per scored round
	// (0 selects DefaultBatchSize). Seeding rounds ignore it.
	BatchSize int
	// MaxNodes bounds each enumeration's search nodes (0 selects
	// DefaultMaxNodes). A budget hit postpones materialization to the
	// next round; it never aborts the survey.
	MaxNodes int
	// PaperExactBounds must match the locate.Options.PaperExactBounds
	// the reconstruction will use: both encode observations with
	// meshroute.Encode, and this selects the same horizontal source gap.
	PaperExactBounds bool
	// Predictor is the topology backend's observation model the planner
	// partitions survivors with. nil selects the mesh backend's
	// meshroute.Predictor, the Y-then-X dimension-order model. The
	// survivor filter and the enumeration model use the mesh encoding
	// (meshroute.Encode) whatever the predictor, so other backends run
	// their own surveys.
	Predictor topo.Predictor
}

// Defaults for the zero Options fields.
const (
	DefaultAmbiguityCap = 256
	DefaultBatchSize    = 4
	DefaultMaxNodes     = 1_000_000
)

// initialNodeBudget is the first enumeration attempt's search-node
// allowance; see Planner.nodeBudget.
const initialNodeBudget = 10_000

func (o Options) withDefaults() Options {
	if o.AmbiguityCap <= 0 {
		o.AmbiguityCap = DefaultAmbiguityCap
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = DefaultMaxNodes
	}
	if o.Predictor == nil {
		o.Predictor = meshroute.Predictor{}
	}
	return o
}

// Stats summarizes a planner's run for telemetry.
type Stats struct {
	// Rounds is the number of batches emitted.
	Rounds int
	// Enumerations counts ilp.Enumerate attempts (successful or not).
	Enumerations int
	// Measured and Failed count resolved candidates; Skipped is the
	// number of candidates the survey never had to run.
	Measured, Failed, Skipped int
	// Ambiguity is the size of the surviving placement set (0 before
	// materialization or after a fallback).
	Ambiguity int
	// Converged reports that the survey stopped because no remaining
	// candidate could split the surviving set.
	Converged bool
	// Fallback reports that the planner degraded to measure-everything
	// mode after the surviving set emptied.
	Fallback bool
}

// candidate measurement lifecycle.
type candState uint8

const (
	candUnmeasured candState = iota
	candPending
	candMeasured
	candFailed
)

// Planner drives one survey. Not safe for concurrent use.
type Planner struct {
	opts   Options
	numCHA int
	cands  []Candidate
	state  []candState

	observations []meshroute.Observation
	// survivors is the materialized set of placements (CHA → coordinate)
	// consistent with every observation so far; nil until the first
	// complete enumeration. cells[i] is survivors[i] as a row-major
	// cell → CHA table (-1 on empty cells); Observe filters both alike.
	survivors [][]mesh.Coord
	cells     [][]int16
	// dead marks candidates whose predicted observation was identical on
	// every survivor when last scored. Survivors only shrink once
	// materialized, so such a candidate can never split them again and
	// scoreAndPick skips it for good. Nothing else reads the marks.
	dead      []bool
	fallback  bool
	converged bool

	rounds, enumerations   int
	measuredCnt, failedCnt int
	// nodeBudget is the search-node allowance of the next enumeration
	// attempt. It starts small and doubles after every incomplete
	// attempt (up to Options.MaxNodes), so the early rounds — when the
	// few observations in hand still admit a vast placement space —
	// fail fast instead of burning the full budget every NextBatch.
	nodeBudget int
	// nextAttemptObs is the observation count an incomplete enumeration
	// demands before the next attempt: retrying with one more batch of
	// evidence against a search space that just overran the budget is
	// nearly always another overrun, so attempts wait for roughly half
	// a pivot star of fresh observations.
	nextAttemptObs int

	// horz holds the horizontal records of the observations with
	// horizontal observers; buildModel rebuilds it for accept and prune.
	horz []meshroute.Horz

	// facts is Encode's scratch, reused by buildModel and Observe.
	facts []meshroute.Fact

	// scratch reused across rounds.
	projCoords []mesh.Coord
	coordFixed []bool
	cellMark   []int64
	cellEpoch  int64
	hops       []topo.Hop
	keyBuf     []byte
	outcomes   keyTable
	remaining  []int
	best       []scoredCand
}

type scoredCand struct {
	idx   int
	score int
}

// New validates the configuration and returns a planner over the given
// candidate pool. numCHA is the number of position unknowns (every CHA on
// the die, core-backed or LLC-only); candidates reference CHAs by those
// IDs. The pool order is the deterministic tie-break for scoring, so
// callers should build it in their canonical (exhaustive-sweep) order.
func New(opts Options, numCHA int, cands []Candidate) (*Planner, error) {
	opts = opts.withDefaults()
	if opts.Rows <= 0 || opts.Cols <= 0 {
		return nil, cmerr.New(cmerr.Permanent, stage, "invalid die grid %dx%d", opts.Rows, opts.Cols)
	}
	if numCHA <= 0 || numCHA > opts.Rows*opts.Cols {
		return nil, cmerr.New(cmerr.Permanent, stage, "%d CHAs cannot fit a %dx%d grid", numCHA, opts.Rows, opts.Cols)
	}
	if numCHA > 255 {
		return nil, cmerr.New(cmerr.Permanent, stage, "%d CHAs exceed the planner's key encoding limit", numCHA)
	}
	for i, t := range opts.IMCPositions {
		if t.Row < 0 || t.Row >= opts.Rows || t.Col < 0 || t.Col >= opts.Cols {
			return nil, cmerr.New(cmerr.Permanent, stage, "IMC %d at %v lies off the %dx%d grid", i, t, opts.Rows, opts.Cols)
		}
	}
	for i, c := range cands {
		if c.DstCHA < 0 || c.DstCHA >= numCHA {
			return nil, cmerr.New(cmerr.Permanent, stage, "candidate %d destination CHA %d out of range", i, c.DstCHA)
		}
		if c.Kind == KindMemory {
			if c.IMC < 0 || c.IMC >= len(opts.IMCPositions) {
				return nil, cmerr.New(cmerr.Permanent, stage, "candidate %d references IMC %d but only %d positions are known", i, c.IMC, len(opts.IMCPositions))
			}
		} else if c.SrcCHA < 0 || c.SrcCHA >= numCHA {
			return nil, cmerr.New(cmerr.Permanent, stage, "candidate %d source CHA %d out of range", i, c.SrcCHA)
		}
	}
	return &Planner{
		opts:       opts,
		numCHA:     numCHA,
		cands:      append([]Candidate(nil), cands...),
		state:      make([]candState, len(cands)),
		dead:       make([]bool, len(cands)),
		projCoords: make([]mesh.Coord, numCHA),
		coordFixed: make([]bool, numCHA),
		cellMark:   make([]int64, opts.Rows*opts.Cols),
	}, nil
}

// Candidate returns the pool entry at index i (as issued by NextBatch).
func (pl *Planner) Candidate(i int) Candidate { return pl.cands[i] }

// Stats returns the planner's current bookkeeping.
func (pl *Planner) Stats() Stats {
	skipped := 0
	for _, st := range pl.state {
		if st == candUnmeasured {
			skipped++
		}
	}
	return Stats{
		Rounds:       pl.rounds,
		Enumerations: pl.enumerations,
		Measured:     pl.measuredCnt,
		Failed:       pl.failedCnt,
		Skipped:      skipped,
		Ambiguity:    len(pl.survivors),
		Converged:    pl.converged,
		Fallback:     pl.fallback,
	}
}

// NextBatch returns the pool indices of the next experiments to run, or
// an empty batch when the survey is over (converged, or no candidates
// remain). Every returned candidate must be resolved with Observe or
// Fail before the next call. The only error condition is context
// cancellation during enumeration.
func (pl *Planner) NextBatch(ctx context.Context) ([]int, error) {
	if pl.converged {
		return nil, nil
	}
	remaining := pl.remaining[:0]
	for i, st := range pl.state {
		if st == candUnmeasured {
			remaining = append(remaining, i)
		}
	}
	pl.remaining = remaining
	if len(remaining) == 0 {
		return nil, nil
	}
	if pl.fallback {
		return pl.issue(remaining), nil
	}
	if pl.survivors == nil && len(pl.observations) >= max(1, pl.nextAttemptObs) {
		if err := pl.materialize(ctx); err != nil {
			return nil, err
		}
		if pl.fallback {
			return pl.issue(remaining), nil
		}
	}
	if pl.survivors != nil {
		batch := pl.scoreAndPick(remaining)
		if pl.converged {
			return nil, nil
		}
		return pl.issue(batch), nil
	}
	return pl.issue(pl.seedBatch(remaining)), nil
}

// issue marks a batch pending and counts the round.
func (pl *Planner) issue(batch []int) []int {
	if len(batch) == 0 {
		return nil
	}
	for _, ci := range batch {
		pl.state[ci] = candPending
	}
	pl.rounds++
	return batch
}

// Observe records a completed measurement for pool index ci and filters
// the surviving placements against it.
func (pl *Planner) Observe(ci int, o meshroute.Observation) {
	if pl.state[ci] == candMeasured || pl.state[ci] == candFailed {
		return
	}
	pl.state[ci] = candMeasured
	pl.measuredCnt++
	pl.observations = append(pl.observations, o)
	if pl.survivors == nil {
		return
	}
	// Survivors are filtered by constraint consistency with the
	// observation's encoding, never by predicted-observation equality;
	// see the package comment.
	var h meshroute.Horz
	pl.facts, h = meshroute.Encode(pl.facts[:0], o, pl.opts.IMCPositions, pl.opts.PaperExactBounds)
	kept, keptCells := pl.survivors[:0], pl.cells[:0]
	for i, p := range pl.survivors {
		if meshroute.Holds(pl.facts, &h, p) {
			kept = append(kept, p)
			keptCells = append(keptCells, pl.cells[i])
		}
	}
	pl.survivors, pl.cells = kept, keptCells
	if len(pl.survivors) == 0 {
		// Every placement the constraints admitted is contradicted: the
		// prediction model and reality have diverged (which the design
		// rules out for supported configurations, but a degraded or
		// misconfigured run can get here). Degrade to the exhaustive
		// sweep; the reconstruction then sees everything measurable.
		pl.survivors, pl.cells = nil, nil
		pl.fallback = true
	}
}

// Fail drops a permanently failed candidate from the pool: no
// observation, no filtering, and the survey continues without it.
func (pl *Planner) Fail(ci int) {
	if pl.state[ci] == candMeasured || pl.state[ci] == candFailed {
		return
	}
	pl.state[ci] = candFailed
	pl.failedCnt++
}

// materialize attempts to enumerate the placements consistent with the
// observations so far. A complete enumeration installs the survivor set;
// a cap or node-budget overrun leaves it nil (still too ambiguous — keep
// seeding). An empty complete enumeration means the constraint system is
// unsatisfiable (degraded measurements), which also degrades to the
// exhaustive sweep.
func (pl *Planner) materialize(ctx context.Context) error {
	pl.enumerations++
	if pl.nodeBudget == 0 {
		pl.nodeBudget = initialNodeBudget
	}
	if pl.nodeBudget > pl.opts.MaxNodes {
		pl.nodeBudget = pl.opts.MaxNodes
	}
	m, project, branch := pl.buildModel()
	res, err := ilp.Enumerate(ctx, m, ilp.EnumOptions{
		Project:     project,
		BranchOrder: branch,
		Cap:         pl.opts.AmbiguityCap,
		MaxNodes:    pl.nodeBudget,
		Accept:      pl.accept,
		Prune:       pl.prune,
	})
	if err != nil {
		return err
	}
	if !res.Complete {
		// Too ambiguous for this attempt's budget. Double it so a survey
		// that needs many rounds of observations before enumeration can
		// complete spends geometrically — the total effort across all
		// failed attempts stays within ~2× the successful one — instead
		// of the full MaxNodes every round, and wait for a meaningful
		// amount of fresh evidence before trying again.
		pl.nodeBudget *= 2
		pl.nextAttemptObs = len(pl.observations) + max(pl.numCHA/2, 8)
		return nil
	}
	if len(res.Solutions) == 0 {
		pl.fallback = true
		return nil
	}
	pl.survivors = make([][]mesh.Coord, len(res.Solutions))
	pl.cells = make([][]int16, len(res.Solutions))
	grid := pl.opts.Rows * pl.opts.Cols
	cells := make([]int16, len(res.Solutions)*grid)
	for i, proj := range res.Solutions {
		p := make([]mesh.Coord, pl.numCHA)
		for k := 0; k < pl.numCHA; k++ {
			p[k] = mesh.Coord{Row: int(proj[2*k]), Col: int(proj[2*k+1])}
		}
		pl.survivors[i] = p
		pl.cells[i] = cells[i*grid : (i+1)*grid : (i+1)*grid]
		pl.cellIndex(p, pl.cells[i])
	}
	return nil
}

// seedBatch picks measurements while the placement set is still too
// ambiguous to enumerate: first every memory-anchored candidate (absolute
// position information, cheapest way to pin the frame), then pivot stars
// — all unmeasured pairs involving the core with the most unmeasured
// partners — and finally plain pool order for whatever family remains.
func (pl *Planner) seedBatch(remaining []int) []int {
	var mem []int
	for _, ci := range remaining {
		if pl.cands[ci].Kind == KindMemory {
			mem = append(mem, ci)
		}
	}
	if len(mem) > 0 {
		return mem
	}
	// Pivot star over pair candidates.
	deg := make(map[int]int)
	for _, ci := range remaining {
		if c := pl.cands[ci]; c.Kind == KindPair {
			deg[c.SrcCHA]++
			deg[c.DstCHA]++
		}
	}
	if len(deg) > 0 {
		pivot, best := -1, 0
		for cha := 0; cha < pl.numCHA; cha++ {
			if d := deg[cha]; d > best {
				pivot, best = cha, d
			}
		}
		var star []int
		for _, ci := range remaining {
			if c := pl.cands[ci]; c.Kind == KindPair && (c.SrcCHA == pivot || c.DstCHA == pivot) {
				star = append(star, ci)
			}
		}
		return star
	}
	// No pairs left: a chunk of whatever remains, in pool order.
	n := 4 * pl.opts.BatchSize
	if n > len(remaining) {
		n = len(remaining)
	}
	return remaining[:n]
}

// scoreAndPick partitions the survivors by each unmeasured candidate's
// predicted observation and returns the candidates that split the set
// most evenly (smallest largest-block first, pool order as tie-break).
// When no candidate splits the set at all, the survey has converged:
// every remaining measurement is already decided by the constraints in
// hand, so it sets pl.converged and returns nothing.
//
// Only the best BatchSize (score, index) pairs are kept, in order. Since
// remaining is in ascending pool order, a later candidate that merely
// ties the worst kept score loses the tie, so partition may abandon a
// candidate as soon as it splits the set with a block that large. A
// candidate found to split nothing is marked dead and never scored
// again.
func (pl *Planner) scoreAndPick(remaining []int) []int {
	n := pl.opts.BatchSize
	best := pl.best[:0]
	for _, ci := range remaining {
		if pl.dead[ci] {
			continue
		}
		bound := 0
		if len(best) == n {
			bound = best[n-1].score
		}
		blocks, maxBlock := pl.partition(pl.cands[ci], bound)
		if blocks == 1 {
			pl.dead[ci] = true
		}
		if blocks < 2 || (bound > 0 && maxBlock >= bound) {
			continue
		}
		i := len(best)
		if i < n {
			best = append(best, scoredCand{})
		} else {
			i--
		}
		for ; i > 0 && best[i-1].score > maxBlock; i-- {
			best[i] = best[i-1]
		}
		best[i] = scoredCand{idx: ci, score: maxBlock}
	}
	pl.best = best
	if len(best) == 0 {
		pl.converged = true
		return nil
	}
	batch := make([]int, len(best))
	for i, sc := range best {
		batch[i] = sc.idx
	}
	return batch
}

// partition groups the survivors by candidate c's predicted observation,
// returning the number of distinct outcomes and the largest group size.
// A bound > 0 lets it stop early, once c has two outcomes and a block of
// at least bound survivors: c then splits the set but scores no better
// than bound. The returned counts are partial in that case; a candidate
// with a single outcome so far is always partitioned to the end.
func (pl *Planner) partition(c Candidate, bound int) (blocks, maxBlock int) {
	pl.outcomes.reset(len(pl.survivors))
	for s := range pl.survivors {
		if n := pl.outcomes.add(pl.predictKey(c, s)); n > maxBlock {
			maxBlock = n
		}
		blocks = len(pl.outcomes.ents)
		if bound > 0 && blocks > 1 && maxBlock >= bound {
			break
		}
	}
	return blocks, maxBlock
}
