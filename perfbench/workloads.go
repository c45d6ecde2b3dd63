package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"coremap"
	"coremap/internal/faulty"
	"coremap/internal/hostif"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
)

// chip is one surveyed instance: the simulated machine (the ground
// truth) and the Host that MapMachine is handed for it.
type chip struct {
	sku     *machine.SKU
	pattern int // fusing-pattern index
	m       *machine.Machine
	host    hostif.Host  // m, or fault wrapping m
	fault   *faulty.Host // nil on clean workloads
}

func newChip(sku *machine.SKU, pattern int, m *machine.Machine) chip {
	return chip{sku: sku, pattern: pattern, m: m, host: m}
}

func (c chip) die() coremap.DieInfo {
	return coremap.DieInfo{Rows: c.sku.Rows, Cols: c.sku.Cols, IMC: c.sku.IMC}
}

func (c chip) truth() truth {
	pos := make([]mesh.Coord, c.m.NumCHAs())
	for cha := range pos {
		pos[cha] = c.m.TrueCHACoord(cha)
	}
	return truth{osToCHA: c.m.TrueOSToCHA(), pos: pos}
}

// label names the chip's model and fusing pattern ("8259CL#3").
func (c chip) label() string {
	return fmt.Sprintf("%s#%d", c.sku.Name[strings.LastIndexByte(c.sku.Name, ' ')+1:], c.pattern)
}

// workload is one input set of the benchmark. A run maps the workload in
// passes; each pass maps a fresh chip list drawn from the seed and the
// pass number, with empty caches.
type workload struct {
	name string
	mix  string // chip mix and fault settings, printed in the header
	// passSeconds is the nominal length of one pass on a 2-core x86-64
	// host; a run makes round(seconds/passSeconds) passes, at least one.
	passSeconds float64
	// faults marks a workload whose hosts inject faults, so degraded
	// maps, and maps failing with a classified error, are expected.
	faults bool
	// probe holds the probe options the workload changes from the
	// library defaults.
	probe probe.Options
	chips func(seed int64) []chip
}

// skxPerSKU is how many chips of each Skylake/Cascade Lake model one
// skx-survey pass maps.
const skxPerSKU = 50

var skxSKUs = []*machine.SKU{machine.SKU8124M, machine.SKU8175M, machine.SKU8259CL}

var workloads = []workload{
	// Step 1 and the host stack dominate; repeated patterns hit the
	// locate cache.
	{
		name:        "skx-survey",
		mix:         "8124M/8175M/8259CL round-robin, 50 each, patterns by systematic sampling over the population weights, seeded instances; no faults",
		passSeconds: 2.6,
		chips:       skxChips,
	},
	// Planner enumeration dominates and carries the latency tail.
	{
		name:        "icx-survey",
		mix:         "6354, one chip per fusing-pattern weight unit (4x pattern 0, 2x pattern 1, 1x patterns 2-11), seeded instances and order; no faults",
		passSeconds: 8,
		chips:       icxChips,
	},
	// The probe and host layers on their retry and degradation path.
	{
		name:        "skx-faulty",
		mix:         "skx-survey chip list behind internal/faulty: seeded 2% transient rate, one stuck CPU (not the first or last) on every third chip of each model; OpRetries=6, RetryBackoff<0 (no sleeps)",
		passSeconds: 3.4,
		faults:      true,
		probe:       probe.Options{OpRetries: faultRetries, RetryBackoff: -1},
		chips:       faultyChips,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// skxChips builds skxPerSKU fresh chips of each Skylake/Cascade Lake
// model, interleaved round-robin. Each model's fusing patterns are drawn
// by systematic sampling over the population weights, so every pattern
// appears floor or ceil of its expected count: independent draws move
// the share of hard-to-map 8124M patterns, and with it exact_frac, the
// locate cache hit rate and the map cost, by about 8% between seeds. The
// seed picks the sampling offset, every instance's secrets (PPIN, slice
// hash) and the order.
func skxChips(seed int64) []chip {
	rng := rand.New(rand.NewSource(seed))
	perSKU := make([][]chip, len(skxSKUs))
	for i, sku := range skxSKUs {
		patterns := systematicPatterns(sku.PatternWeights, skxPerSKU, rng.Float64())
		perSKU[i] = generate(sku, patterns, rng)
	}
	out := make([]chip, 0, skxPerSKU*len(skxSKUs))
	for k := 0; k < skxPerSKU; k++ {
		for i := range skxSKUs {
			out = append(out, perSKU[i][k])
		}
	}
	return out
}

// systematicPatterns picks n pattern indices by systematic sampling: the
// k-th pick is the pattern whose cumulative weight covers (offset+k)/n of
// the total, for an offset in [0, 1).
func systematicPatterns(weights []float64, n int, offset float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]int, 0, n)
	idx, cum := 0, weights[0]
	for k := 0; k < n; k++ {
		u := (offset + float64(k)) / float64(n) * total
		for u >= cum && idx < len(weights)-1 {
			idx++
			cum += weights[idx]
		}
		out = append(out, idx)
	}
	return out
}

// generate shuffles the pattern list and builds one fresh instance per
// entry, each with its own seed from rng.
func generate(sku *machine.SKU, patterns []int, rng *rand.Rand) []chip {
	rng.Shuffle(len(patterns), func(i, j int) { patterns[i], patterns[j] = patterns[j], patterns[i] })
	out := make([]chip, len(patterns))
	for i, idx := range patterns {
		out[i] = newChip(sku, idx, machine.Generate(sku, idx, machine.Config{Seed: rng.Int63()}))
	}
	return out
}

// icxChips builds one Ice Lake 6354 chip per unit of fusing-pattern
// weight: the per-chip cost depends mostly on the pattern (0.06 to 2 s),
// so a fixed pattern mix keeps the workload's cost independent of the
// seed, which draws every instance's secrets (PPIN, slice hash) and the
// order.
func icxChips(seed int64) []chip {
	sku := machine.SKU6354
	unit := math.Inf(1)
	for _, w := range sku.PatternWeights {
		unit = min(unit, w)
	}
	var patterns []int
	for idx, w := range sku.PatternWeights {
		for n := int(math.Round(w / unit)); n > 0; n-- {
			patterns = append(patterns, idx)
		}
	}
	return generate(sku, patterns, rand.New(rand.NewSource(seed)))
}

// Fault settings of skx-faulty.
const (
	faultRate   = 0.02
	stuckPeriod = 3 // every third chip of each model has one stuck CPU
	// faultRetries is the probe's per-operation retry budget. At a 2%
	// rate, the default budget of 3 leaves a 0.02^4 chance per operation
	// that transient faults alone exhaust it; on CPU 0 or the last CPU
	// that fails the map, about once in 500 maps. Six retries make
	// that 0.02^7, so transient faults alone fail no map.
	faultRetries = 6
)

// faultyChips puts the skx-survey chips of the same seed behind seeded
// fault injectors.
func faultyChips(seed int64) []chip {
	chips := skxChips(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eedfa17))
	for i := range chips {
		c := &chips[i]
		opts := faulty.Options{Seed: rng.Int63(), Rate: faultRate}
		if (i/len(skxSKUs))%stuckPeriod == stuckPeriod-1 {
			// CPU 0 carries every uncore MSR access and the last CPU
			// pairs with it in home-slice discovery; the probe cannot
			// degrade around either, so a stuck one fails the map.
			opts.StuckCPUs = []int{1 + rng.Intn(c.m.NumCPUs()-2)}
		}
		c.fault = faulty.New(c.m, opts)
		c.host = c.fault
	}
	return chips
}
