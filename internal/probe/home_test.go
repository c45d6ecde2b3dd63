package probe

import (
	"context"
	"testing"

	"coremap/internal/cmerr"
	"coremap/internal/faulty"
	"coremap/internal/hostif"
	"coremap/internal/machine"
	"coremap/internal/obs"
)

// homeLine is the i-th candidate line of the home tests: consecutive
// lines one page apart, like TestFindLineHomeMatchesSecretHash.
func homeLine(i int) uint64 { return 0x10000000 + uint64(i)*4096 }

// checkHomes runs FindLineHome on lines [from, to) and compares every
// answer with the simulator's secret slice hash.
func checkHomes(t *testing.T, p *Prober, m *machine.Machine, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		addr := homeLine(i)
		got, err := p.FindLineHome(context.Background(), addr)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if want := m.TrueHomeCHA(addr); got != want {
			t.Errorf("home of %#x = CHA %d, want %d", addr, got, want)
		}
	}
}

// TestFindLineHomeInterleaved interleaves home tests with calibration and
// traffic experiments, whose counter resets and cache traffic must never
// leak into a home test's lookup deltas. MeasureRequestTraffic is the
// sharp case: it reprograms the ring counters without a box reset, so
// the slice it loads from gains lookups nothing else clears.
func TestFindLineHomeInterleaved(t *testing.T) {
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 3})
	p := newProber(t, m)
	ctx := context.Background()
	if err := p.BuildEvictionSets(ctx); err != nil {
		t.Fatal(err)
	}
	mapping := m.TrueOSToCHA()
	checkHomes(t, p, m, 0, 20)
	if err := p.CalibrateNoise(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MeasureTraffic(ctx, 0, 1, mapping[0], mapping[1]); err != nil {
		t.Fatal(err)
	}
	checkHomes(t, p, m, 20, 30)
	for i := 30; i < 40; i += 5 {
		// Load from a slice that does not home the next line.
		slice := (m.TrueHomeCHA(homeLine(i)) + 1) % p.NumCHA()
		if _, err := p.MeasureRequestTraffic(ctx, 2, mapping[2], slice); err != nil {
			t.Fatal(err)
		}
		checkHomes(t, p, m, i, i+5)
	}
}

// swapHost forwards to a host the test can replace mid-run.
type swapHost struct{ hostif.Host }

// TestFindLineHomeMSRFaults runs the home test behind transient faults on
// MSR operations only: retried faults must not disturb the deltas, and
// with retry disabled every home test that does succeed after a failed
// one still finds the true home.
func TestFindLineHomeMSRFaults(t *testing.T) {
	for _, retries := range []int{0, -1} {
		m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 3})
		// Discover the CHAs fault-free; inject from the first home test on.
		host := &swapHost{Host: m}
		p, err := New(host, Options{Seed: 1, OpRetries: retries, RetryBackoff: -1})
		if err != nil {
			t.Fatal(err)
		}
		fh := faulty.New(m, faulty.Options{Seed: 5, Rate: 0.02, MSROnly: true})
		host.Host = fh
		failed := 0
		for i := 0; i < 60; i++ {
			addr := homeLine(i)
			got, err := p.FindLineHome(context.Background(), addr)
			if err != nil {
				if retries == 0 || !cmerr.IsTransient(err) {
					t.Fatalf("retries %d, line %d: %v", retries, i, err)
				}
				failed++
				continue
			}
			if want := m.TrueHomeCHA(addr); got != want {
				t.Errorf("retries %d: home of %#x = CHA %d, want %d", retries, addr, got, want)
			}
		}
		if fh.Injected() == 0 {
			t.Errorf("retries %d: no fault injected", retries)
		}
		if retries < 0 && failed == 0 {
			t.Error("retry disabled, yet no home test failed")
		}
	}
}

// storeAddrHost records the distinct addresses it stores to.
type storeAddrHost struct {
	hostif.Host
	addrs map[uint64]bool
}

func (h *storeAddrHost) NumCPUs() int { return h.Host.NumCPUs() }

func (h *storeAddrHost) Store(cpu int, addr uint64) error {
	h.addrs[addr] = true
	return h.Host.Store(cpu, addr)
}

// TestBuildEvictionSetsOpBudget pins the cost of step 1's set-up: one
// LLC_LOOKUP programming pass, then per candidate line at most one
// 4-round chunk of ping-pong stores and one counter sweep.
func TestBuildEvictionSetsOpBudget(t *testing.T) {
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 3})
	reg := obs.NewRegistry()
	host := &storeAddrHost{Host: hostif.Counting(m, reg, nil), addrs: map[uint64]bool{}}
	p, err := New(host, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	if err := p.BuildEvictionSets(context.Background()); err != nil {
		t.Fatal(err)
	}
	ops := reg.Snapshot().Sub(before).Total("host/ops/")
	n := p.NumCHA()
	lines := len(host.addrs)
	if budget := int64(n + lines*(2*4+n)); ops > budget {
		t.Errorf("BuildEvictionSets spent %d host ops on %d lines, budget %d", ops, lines, budget)
	}
	if lines < n*(p.opts.L2Ways+1) {
		t.Errorf("scanned %d lines, fewer than the %d set slots", lines, n*(p.opts.L2Ways+1))
	}
}

// lookupHost runs foreign LLC traffic alongside the probe. With every
// store it forwards, the slice of CHA k takes rate[k]/32 more lookups —
// rate[k]/16 per ping-pong round — and burst[k] more arrive with the
// first store. The lookups land on the simulated tiles, so the PMON
// counters see them exactly as they see the probe's own.
type lookupHost struct {
	*machine.Machine
	rate, burst []uint64
	stores      uint64
}

func (h *lookupHost) Store(cpu int, addr uint64) error {
	for cha, r := range h.rate {
		extra := r*(h.stores+1)/32 - r*h.stores/32
		if h.stores == 0 {
			extra += h.burst[cha]
		}
		if extra > 0 {
			h.Grid.LookupLLC(h.TrueCHACoord(cha), extra)
		}
	}
	h.stores++
	return h.Machine.Store(cpu, addr)
}

// injectedHome runs one home test on a fresh 8175M (seed 3) whose CHA
// after the line's home takes the given foreign lookups, and returns the
// answer, the true home and the ping-pong rounds the test took.
func injectedHome(t *testing.T, line int, rate, burst uint64) (got, want, rounds int, err error) {
	t.Helper()
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 3})
	n := m.NumCHAs()
	h := &lookupHost{Machine: m, rate: make([]uint64, n), burst: make([]uint64, n)}
	want = m.TrueHomeCHA(homeLine(line))
	x := (want + 1) % n
	h.rate[x], h.burst[x] = rate, burst
	p, err := New(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err = p.FindLineHome(context.Background(), homeLine(line))
	return got, want, int(h.stores / 2), err
}

// TestFindLineHomeInjectedLookups feeds one non-home CHA foreign lookups.
// Below one lookup per round the home still wins, and a backlog that
// masks the first chunk only delays the decision. At 1.25 to 1.8 per
// round the margin never reaches one lookup per round, so the test runs
// the full HomeSamples budget and the acceptance rule picks the home.
// From two per round on, the injected CHA is indistinguishable from a
// home for any lookup-count rule.
func TestFindLineHomeInjectedLookups(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rate, burst uint64
		minRounds   int
	}{
		{"stream below one per round", 15, 0, 4},
		{"backlog masking the first chunk", 0, 6, 12},
		{"backlog and stream", 8, 6, 12},
	} {
		for line := 0; line < 8; line++ {
			got, want, rounds, err := injectedHome(t, line, tc.rate, tc.burst)
			if err != nil {
				t.Fatalf("%s, line %d: %v", tc.name, line, err)
			}
			if got != want {
				t.Errorf("%s, line %d: home CHA %d, want %d", tc.name, line, got, want)
			}
			if rounds < tc.minRounds {
				t.Errorf("%s, line %d: decided after %d rounds, want at least %d", tc.name, line, rounds, tc.minRounds)
			}
		}
	}
	for rate := uint64(20); rate < 30; rate += 3 {
		for line := 0; line < 4; line++ {
			got, want, rounds, err := injectedHome(t, line, rate, 0)
			if err != nil {
				if !cmerr.IsPermanent(err) {
					t.Errorf("rate %d/16, line %d: unclassified error %v", rate, line, err)
				}
				continue
			}
			if got != want {
				t.Errorf("rate %d/16, line %d: home CHA %d, want %d", rate, line, got, want)
			}
			if rounds != 32 {
				t.Errorf("rate %d/16, line %d: decided after %d rounds, want the full 32", rate, line, rounds)
			}
		}
	}
}

// FuzzFindLineHome drives one home test on a fuzzer-chosen 8124M chip and
// line while every CHA's slice takes a fuzzer-chosen stream of foreign
// lookups, below two per round (the home's own rate). The test must not
// panic, must return the true home or a classified Permanent error, and
// must return the true home whenever no other CHA gets a full lookup per
// round.
func FuzzFindLineHome(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{})
	f.Add(int64(3), uint16(7), []byte{15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15})
	f.Add(int64(5), uint16(300), []byte{31, 0, 24, 16, 0, 31})
	f.Fuzz(func(t *testing.T, seed int64, line uint16, inject []byte) {
		m := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: seed})
		n := m.NumCHAs()
		h := &lookupHost{Machine: m, rate: make([]uint64, n), burst: make([]uint64, n)}
		addr := homeLine(int(line))
		want := m.TrueHomeCHA(addr)
		clean := true
		for cha := range h.rate {
			if cha < len(inject) {
				h.rate[cha] = uint64(inject[cha] % 32)
			}
			if cha != want && h.rate[cha] >= 16 {
				clean = false
			}
		}
		p, err := New(h, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.FindLineHome(context.Background(), addr)
		switch {
		case err != nil && (clean || !cmerr.IsPermanent(err)):
			t.Fatalf("home of %#x: %v (rates %v)", addr, err, h.rate)
		case err == nil && got != want:
			t.Fatalf("home of %#x = CHA %d, want %d (rates %v)", addr, got, want, h.rate)
		}
	})
}
