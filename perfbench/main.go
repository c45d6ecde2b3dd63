// Command perfbench is coremap's benchmark: it maps a fleet of simulated
// Xeon chips through the public coremap.MapMachine, one map at a time
// (closed loop, one client, library defaults: planner on, caches on and
// empty at the start of every pass, ILP workers = GOMAXPROCS), checks
// every map against the simulator's ground truth and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload skx-survey --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates untraced passes with traced ones (an obs.Telemetry on
// obs.SystemClock plus host-operation timing) and reports the per-layer
// split; the spans go to
// .bench_build/perfbench/trace-<workload>-seed<seed>.jsonl. See README.md
// for the workloads and the metric definitions.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"coremap"
	"coremap/internal/locate"
	"coremap/internal/obs"
	"coremap/internal/probe"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: skx-survey, icx-survey or skx-faulty")
	seed := fl.Int64("seed", 1, "workload seed: the same seed maps the same chips")
	seconds := fl.Float64("seconds", 10, "nominal measuring time; sets the number of passes")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (skx-survey, icx-survey, skx-faulty), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	printHeader(stdout, w, *seed, *seconds, *trace)

	var res result
	var err error
	if *trace == 0 {
		res = runUntraced(stdout, w, *seed, passesFor(w, *seconds))
	} else {
		// A traced pass takes about twice as long as an untraced one.
		res, err = runTraced(stdout, w, *seed, passesFor(w, *seconds/3))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	for _, msg := range res.problems {
		fmt.Fprintln(stdout, "INCORRECT:", msg)
	}
	b, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.out.Correct {
		return 1
	}
	return 0
}

func passesFor(w workload, seconds float64) int {
	return max(1, int(math.Round(seconds/w.passSeconds)))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is a finished run: the JSON line, the human-readable report and
// any correctness problems found.
type result struct {
	out      output
	report   []string
	problems []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.out.Metrics == nil {
		r.out.Metrics = make(map[string]metric)
	}
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
	r.report = append(r.report, fmt.Sprintf("metric %-28s %14.6g %s", name, v, unit))
}

// passStats is what one pass over the chip list measured.
type passStats struct {
	setup   time.Duration
	wall    time.Duration // the map loop
	cpu     time.Duration // process user+sys CPU in the map loop
	alloc   uint64        // bytes allocated in the map loop
	latMS   []float64
	ops     [numOps]int64
	tally   tally
	digest  string
	dropped int64  // spans lost from a full trace buffer
	live    uint64 // heap after a GC at the end of the pass, caches still held

	// Traced passes only.
	layers   [numLayers]int64 // ns
	busy     int64            // ns inside the machine
	counters map[string]int64 // summed per-map counters and gauges
	caches   map[string]int64 // cache gauges at the end of the pass
	spans    []traceLine
}

// traceLine is one line of the span trace file.
type traceLine struct {
	Map        int             `json:"map"`
	Chip       string          `json:"chip"`
	Span       *obs.SpanRecord `json:"span,omitempty"`
	HostOps    int64           `json:"host_ops,omitempty"`
	HostBusyUS int64           `json:"host_busy_us,omitempty"`
	MapUS      int64           `json:"map_us,omitempty"`
}

// Per-map counters and gauges the traced run sums, by registry name.
var (
	mapCounters = []string{
		"probe/experiments/planned", "probe/experiments/completed", "probe/retries",
		"ilp/enum_nodes", "locate/constraints/raw", "locate/constraints/built",
		"ilp/solves", "ilp/nodes",
	}
	mapGauges   = []string{"plan/enumerations", "plan/rounds", "faulty/injected"}
	cacheGauges = []string{"probe/cache/hits", "probe/cache/misses", "locate/cache/hits", "locate/cache/misses"}
)

// passSeed is the chip seed of pass i of a run: every pass maps its own
// fresh chips, so a run averages over passes×(chips per pass) instances.
func passSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// runPass generates the chips of one pass and its caches (the set-up),
// then maps every chip once.
func runPass(w workload, chipSeed int64, traced bool) passStats {
	var ps passStats
	start := time.Now()
	chips := w.chips(chipSeed)
	pc, lc := probe.NewResultCache(), locate.NewCache()
	ps.setup = time.Since(start)

	opts := coremap.Options{Probe: w.probe, Locate: locate.Options{Cache: lc}}
	opts.Probe.Cache = pc
	if traced {
		ps.counters = make(map[string]int64)
	}
	digest := sha256.New()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	loop := time.Now()
	for i, c := range chips {
		bh := newBenchHost(c.host, traced)
		ctx := context.Background()
		var tel *obs.Telemetry
		if traced {
			base := obs.SystemClock.Now()
			tel = obs.New(obs.Config{Clock: obs.SystemClock, TraceCapacity: 1 << 16})
			reg := tel.Registry()
			// Registration fails only on a duplicate; every map has a
			// fresh registry.
			_ = pc.Register(reg)
			_ = lc.Register(reg)
			if c.fault != nil {
				_ = c.fault.Register(reg)
			}
			ctx = obs.With(ctx, tel)
			bh.resetTimeline(base)
		}
		t := time.Now()
		res, err := coremap.MapMachine(ctx, bh, c.die(), opts)
		lat := time.Since(t)
		ps.latMS = append(ps.latMS, float64(lat)/1e6)
		for k, v := range bh.ops {
			ps.ops[k] += v
		}
		ps.tally.add(res, err, c.truth())
		writeCanonical(digest, res)
		if traced {
			ps.addTrace(i, c, tel, bh, lat)
		}
	}
	ps.wall = time.Since(loop)
	ps.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ps.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	ps.digest = hex.EncodeToString(digest.Sum(nil))
	// What the program retains for a fleet of this size: the chips are
	// garbage now, the caches are not. The collection also gives the next
	// pass's set-up a clean heap.
	chips = nil
	ps.live = liveHeap()
	runtime.KeepAlive(pc)
	runtime.KeepAlive(lc)
	return ps
}

// addTrace folds one traced map's spans, counters and host timeline into
// the pass.
func (ps *passStats) addTrace(i int, c chip, tel *obs.Telemetry, bh *benchHost, lat time.Duration) {
	recs := tel.Spans()
	ps.dropped += tel.Dropped()
	nodes, _ := buildTree(recs, 0)
	l := splitLayers(nodes, bh.busyIn)
	for k := range l {
		ps.layers[k] += l[k]
	}
	ps.busy += bh.busy
	snap := tel.Registry().Snapshot()
	for _, n := range mapCounters {
		ps.counters[n] += snap.Counters[n]
	}
	for _, n := range mapGauges {
		ps.counters[n] += snap.Gauges[n]
	}
	ps.caches = make(map[string]int64, len(cacheGauges))
	for _, n := range cacheGauges {
		ps.caches[n] = snap.Gauges[n]
	}
	label := c.label()
	for k := range recs {
		ps.spans = append(ps.spans, traceLine{Map: i, Chip: label, Span: &recs[k]})
	}
	ps.spans = append(ps.spans, traceLine{Map: i, Chip: label, HostOps: bh.totalOps(),
		HostBusyUS: bh.busy / 1000, MapUS: lat.Microseconds()})
}

// writeCanonical appends a result's canonical JSON to the digest. The
// solver's node count is left out: with more than one ILP worker it
// depends on scheduling, while the map itself does not.
func writeCanonical(w io.Writer, res *coremap.Result) {
	var v any
	if res != nil {
		r := *res
		r.SolverNodes = 0
		v = r
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // Result holds only plain data
	}
	w.Write(append(b, '\n'))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkPasses verifies the outcome of a workload's passes: no wrong map
// and no unclassified error anywhere; no failed or degraded map on a
// fault-free workload; no lost spans. Under injected faults a map may
// fail with a classified error, which failed_frac counts. Inexact maps
// are not errors: heavily fused dies leave some placements unobservable
// (paper Sec. II-D), which exact_frac reports.
func checkPasses(w workload, passes []passStats) []string {
	var problems []string
	var t tally
	for i, p := range passes {
		t.merge(p.tally)
		if p.dropped > 0 {
			problems = append(problems, fmt.Sprintf("pass %d lost %d spans from a full trace buffer", i+1, p.dropped))
		}
	}
	if t.wrong > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d maps have a wrong OSToCHA or an unclassified error", t.wrong, t.attempted))
	}
	if !w.faults && t.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d maps failed on a fault-free workload", t.failed, t.attempted))
	}
	if !w.faults && t.degraded > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d maps degraded on a fault-free workload", t.degraded, t.attempted))
	}
	return problems
}

// runDigest is the sha256 over the pass digests, in order: the identity
// of every map of the run.
func runDigest(passes []passStats) string {
	h := sha256.New()
	for _, p := range passes {
		io.WriteString(h, p.digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func totals(passes []passStats) (t tally, alloc uint64, ops [numOps]int64, lat, setup []float64) {
	for _, p := range passes {
		t.merge(p.tally)
		alloc += p.alloc
		for k, v := range p.ops {
			ops[k] += v
		}
		lat = append(lat, p.latMS...)
		setup = append(setup, p.setup.Seconds())
	}
	return
}

func sum(vals []float64) (s float64) {
	for _, v := range vals {
		s += v
	}
	return s
}

func sumOps(ops [numOps]int64) (n int64) {
	for _, v := range ops {
		n += v
	}
	return n
}

// runUntraced measures the end-to-end metrics.
func runUntraced(stdout io.Writer, w workload, seed int64, n int) result {
	var passes []passStats
	for i := 0; i < n; i++ {
		p := runPass(w, passSeed(seed, i), false)
		printPass(stdout, "untraced", i, p)
		passes = append(passes, p)
	}

	var r result
	r.problems = checkPasses(w, passes)
	t, alloc, ops, lat, setup := totals(passes)
	maps := float64(t.attempted)
	// Rates are medians over passes, so a burst of load from outside
	// the process moves them less than a total would.
	var rate, cpuMS, liveMB []float64
	for _, p := range passes {
		n := float64(p.tally.attempted)
		rate = append(rate, n/p.wall.Seconds())
		cpuMS = append(cpuMS, float64(p.cpu)/1e6/n)
		liveMB = append(liveMB, float64(p.live)/1e6)
	}
	r.out = output{Correct: len(r.problems) == 0, Attempted: t.attempted, Failed: t.failed}
	r.report = append(r.report, "digest "+w.name+" sha256:"+runDigest(passes))
	p50, p90 := percentile(lat, 50), percentile(lat, 90)
	r.report = append(r.report, "latency_ms "+p50.String()+" "+p90.String())
	r.set("maps_per_s", median(rate), "1/s")
	r.set("map_ms_p50", p50.Value, "ms")
	r.set("map_ms_p90", p90.Value, "ms")
	r.set("cpu_ms_per_map", median(cpuMS), "ms")
	r.set("host_ops_per_map", float64(sumOps(ops))/maps, "ops")
	r.set("exact_frac", t.exactFrac(), "frac")
	r.set("tile_acc", t.tileAcc(), "frac")
	r.set("alloc_mb_per_map", float64(alloc)/1e6/maps, "MB")
	r.set("live_heap_mb", median(liveMB), "MB")
	r.set("setup_s", median(setup), "s")
	// Printed by every run; the traced run also reports them as metrics.
	r.report = append(r.report,
		fmt.Sprintf("metric %-28s %14.6g frac", "failed_frac", t.failedFrac()),
		fmt.Sprintf("metric %-28s %14.6g frac", "degraded_frac", t.degradedFrac()))
	return r
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runTraced alternates untraced and traced passes, n of each, and
// reports the per-layer metrics of the traced ones.
func runTraced(stdout io.Writer, w workload, seed int64, n int) (result, error) {
	var plain, traced []passStats
	var r result
	for i := 0; i < n; i++ {
		p := runPass(w, passSeed(seed, i), false)
		printPass(stdout, "untraced", i, p)
		plain = append(plain, p)
		q := runPass(w, passSeed(seed, i), true)
		printPass(stdout, "traced", i, q)
		traced = append(traced, q)
		if q.digest != p.digest {
			r.problems = append(r.problems, fmt.Sprintf("pass %d: traced maps differ from untraced ones", i+1))
		}
	}
	if err := writeTrace(w, seed, traced); err != nil {
		return result{}, err
	}
	r.problems = append(r.problems, checkPasses(w, traced)...)
	t, _, ops, lat, _ := totals(traced)
	_, _, _, plainLat, _ := totals(plain)
	// Traced passes also spend time between maps folding spans into
	// layers, so overhead and shares compare summed map latencies.
	tracedMS, plainMS := sum(lat), sum(plainLat)
	maps := float64(t.attempted)
	var layers [numLayers]int64
	var busy int64
	counters := make(map[string]int64)
	caches := make(map[string]int64)
	for _, p := range traced {
		for k := range layers {
			layers[k] += p.layers[k]
		}
		busy += p.busy
		for k, v := range p.counters {
			counters[k] += v
		}
		for k, v := range p.caches {
			caches[k] += v
		}
	}
	msPerMap := func(ns int64) float64 { return float64(ns) / 1e6 / maps }
	perMap := func(v int64) float64 { return float64(v) / maps }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	r.out = output{Correct: len(r.problems) == 0, Attempted: t.attempted, Failed: t.failed}
	r.report = append(r.report, "digest "+w.name+" sha256:"+runDigest(traced))
	r.report = append(r.report, shares(layers, time.Duration(tracedMS*1e6)))

	r.set("machine.ms_per_map", msPerMap(busy), "ms")
	r.set("machine.ns_per_op", float64(busy)/float64(max(sumOps(ops), 1)), "ns")
	for k, name := range opNames {
		r.set("machine."+name+"_per_map", perMap(ops[k]), "ops")
	}
	r.set("probe.step1_ms_per_map", msPerMap(layers[layerStep1]), "ms")
	r.set("probe.step2_self_ms_per_map", msPerMap(layers[layerStep2]), "ms")
	r.set("probe.experiments_per_map", perMap(counters["probe/experiments/planned"]), "count")
	r.set("probe.completed_frac", ratio(counters["probe/experiments/completed"], counters["probe/experiments/planned"]), "frac")
	r.set("probe.retries_per_map", perMap(counters["probe/retries"]), "count")
	r.set("probe.cache_hit_frac", ratio(caches["probe/cache/hits"], caches["probe/cache/hits"]+caches["probe/cache/misses"]), "frac")
	r.set("faulty.injected_per_map", perMap(counters["faulty/injected"]), "count")
	r.set("plan.enumerate_ms_per_map", msPerMap(layers[layerEnumerate]), "ms")
	r.set("plan.enumerations_per_map", perMap(counters["plan/enumerations"]), "count")
	r.set("plan.enum_nodes_per_map", perMap(counters["ilp/enum_nodes"]), "count")
	r.set("plan.rounds_per_map", perMap(counters["plan/rounds"]), "count")
	r.set("locate.self_ms_per_map", msPerMap(layers[layerLocate]), "ms")
	r.set("locate.constraints_per_map", perMap(counters["locate/constraints/built"]), "count")
	raw := counters["locate/constraints/raw"]
	r.set("locate.prune_frac", ratio(raw-counters["locate/constraints/built"], raw), "frac")
	r.set("locate.cache_hit_frac", ratio(caches["locate/cache/hits"], caches["locate/cache/hits"]+caches["locate/cache/misses"]), "frac")
	r.set("ilp.solve_ms_per_map", msPerMap(layers[layerSolve]), "ms")
	r.set("ilp.solves_per_map", perMap(counters["ilp/solves"]), "count")
	r.set("ilp.nodes_per_map", perMap(counters["ilp/nodes"]), "count")
	r.set("coremap.self_ms_per_map", msPerMap(layers[layerCoremap]), "ms")
	r.set("trace.overhead_frac", 1-plainMS/tracedMS, "frac")
	r.set("failed_frac", t.failedFrac(), "frac")
	r.set("degraded_frac", t.degradedFrac(), "frac")
	return r, nil
}

// shares renders each layer's share of the traced map time.
func shares(layers [numLayers]int64, wall time.Duration) string {
	var b strings.Builder
	b.WriteString("shares")
	var total int64
	for k, v := range layers {
		total += v
		fmt.Fprintf(&b, " %s=%.1f%%", layerNames[k], 100*float64(v)/float64(wall))
	}
	fmt.Fprintf(&b, " unattributed=%.1f%%", 100*(1-float64(total)/float64(wall)))
	return b.String()
}

func printPass(w io.Writer, kind string, i int, p passStats) {
	fmt.Fprintf(w, "pass %d %-8s maps=%d wall=%.3fs setup=%.4fs failed=%d degraded=%d exact=%d digest=%.16s\n",
		i+1, kind, p.tally.attempted, p.wall.Seconds(), p.setup.Seconds(),
		p.tally.failed, p.tally.degraded, p.tally.exact, p.digest)
}

// writeTrace writes the traced passes' spans as JSONL.
func writeTrace(w workload, seed int64, passes []passStats) (err error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed)))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	offset := 0
	for _, p := range passes {
		for _, line := range p.spans {
			line.Map += offset
			if err := enc.Encode(line); err != nil {
				return fmt.Errorf("write trace: %w", err)
			}
		}
		offset += p.tally.attempted
	}
	return nil
}

// printHeader identifies the run, so figures from different hosts or
// sources are never compared unknowingly.
func printHeader(w io.Writer, wl workload, seed int64, seconds float64, trace int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", wl.name, seed, seconds, trace)
	fmt.Fprintf(w, "# go=%s GOMAXPROCS=%d nproc=%d GOOS/GOARCH=%s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# commit=%s source=sha256:%s\n", commit, sourceDigest("."))
	fmt.Fprintf(w, "# chips: %s\n", wl.mix)
}

// sourceDigest hashes the names and contents of the Go sources and module
// files under root, skipping dot directories, so runs from a checkout
// without version control still identify the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unavailable (" + err.Error() + ")"
	}
	return hex.EncodeToString(h.Sum(nil))
}
