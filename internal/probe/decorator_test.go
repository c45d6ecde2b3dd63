package probe

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coremap/internal/cmerr"
	"coremap/internal/faulty"
	"coremap/internal/hostif"
	"coremap/internal/machine"
	"coremap/internal/msr"
	"coremap/internal/obs"
)

// cancelHost sits directly under the prober and cancels the call's
// context on its cancelAt-th operation once armed. Every operation that
// reaches it after the cancel counts as late: the probe's host-op
// decorator must not let a single one through.
type cancelHost struct {
	h        hostif.Host
	cancelAt int
	cancel   context.CancelFunc
	ops      int
	fired    atomic.Bool
	late     atomic.Int64
	// watchCPU, when its channel is non-nil, closes watched on the first
	// operation that targets that CPU.
	watchCPU int
	watched  chan struct{}
}

// arm starts counting operations from zero and cancels on the n-th.
func (c *cancelHost) arm(n int, cancel context.CancelFunc) {
	c.cancelAt, c.cancel, c.ops = n, cancel, 0
}

// fire cancels the context; operations from now on are late.
func (c *cancelHost) fire() {
	c.fired.Store(true)
	c.cancel()
}

func (c *cancelHost) op(cpu int) {
	if c.fired.Load() {
		c.late.Add(1)
	}
	if c.watched != nil && cpu == c.watchCPU {
		close(c.watched)
		c.watched = nil
	}
	if c.cancelAt == 0 {
		return
	}
	c.ops++
	if c.ops == c.cancelAt {
		c.fire()
	}
}

func (c *cancelHost) NumCPUs() int { return c.h.NumCPUs() }

func (c *cancelHost) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	c.op(cpu)
	return c.h.ReadMSR(cpu, a)
}

func (c *cancelHost) WriteMSR(cpu int, a msr.Addr, v uint64) error {
	c.op(cpu)
	return c.h.WriteMSR(cpu, a, v)
}

func (c *cancelHost) Load(cpu int, addr uint64) error {
	c.op(cpu)
	return c.h.Load(cpu, addr)
}

func (c *cancelHost) TimedLoad(cpu int, addr uint64) (uint64, error) {
	c.op(cpu)
	return c.h.TimedLoad(cpu, addr)
}

func (c *cancelHost) Store(cpu int, addr uint64) error {
	c.op(cpu)
	return c.h.Store(cpu, addr)
}

func (c *cancelHost) Flush(cpu int, addr uint64) error {
	c.op(cpu)
	return c.h.Flush(cpu, addr)
}

// TestCancelStopsHostOps pins the decorator's cancellation contract for
// every public entry point: once the context is cancelled, not one more
// host operation reaches the host, and the call reports Interrupted.
func TestCancelStopsHostOps(t *testing.T) {
	type call func(ctx context.Context, p *Prober, mapping []int) error
	measure := func(ctx context.Context, p *Prober, mapping []int) error {
		_, err := p.MeasureTraffic(ctx, 0, 7, mapping[0], mapping[7])
		return err
	}
	for _, tc := range []struct {
		name     string
		mapped   bool // run step 1 unarmed first
		cancelAt int
		call     call
	}{
		{"CalibrateNoise", false, 50, func(ctx context.Context, p *Prober, _ []int) error {
			return p.CalibrateNoise(ctx)
		}},
		{"ReadPPIN", false, 1, func(ctx context.Context, p *Prober, _ []int) error {
			_, err := p.ReadPPIN(ctx)
			return err
		}},
		{"FindLineHome", false, 10, func(ctx context.Context, p *Prober, _ []int) error {
			_, err := p.FindLineHome(ctx, 0x10000000)
			return err
		}},
		{"BuildEvictionSets", false, 500, func(ctx context.Context, p *Prober, _ []int) error {
			return p.BuildEvictionSets(ctx)
		}},
		{"MapCoresToCHAs", false, 5000, func(ctx context.Context, p *Prober, _ []int) error {
			_, err := p.MapCoresToCHAs(ctx)
			return err
		}},
		{"MeasureTraffic", true, 20, measure},
		{"MeasureSliceTraffic", true, 20, func(ctx context.Context, p *Prober, mapping []int) error {
			_, err := p.MeasureSliceTraffic(ctx, 0, mapping[0], mapping[7])
			return err
		}},
		{"MeasureRequestTraffic", true, 20, func(ctx context.Context, p *Prober, mapping []int) error {
			_, err := p.MeasureRequestTraffic(ctx, 0, mapping[0], mapping[7])
			return err
		}},
		{"MeasureMemoryTraffic", true, 20, func(ctx context.Context, p *Prober, mapping []int) error {
			_, err := p.MeasureMemoryTraffic(ctx, 0, mapping[0], 1, 2)
			return err
		}},
		{"Run", false, 5000, func(ctx context.Context, p *Prober, _ []int) error {
			_, err := p.Run(ctx)
			return err
		}},
		{"RunWith/50", false, 50, runWithCall},
		{"RunWith/5000", false, 5000, runWithCall},
		{"RunWith/40000", false, 40000, runWithCall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 21})
			ch := &cancelHost{h: m}
			p, err := New(ch, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var mapping []int
			if tc.mapped {
				if mapping, err = p.MapCoresToCHAs(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ch.arm(tc.cancelAt, cancel)
			err = tc.call(ctx, p, mapping)
			if !ch.fired.Load() {
				t.Fatalf("call finished after %d ops, before the cancel at op %d", ch.ops, tc.cancelAt)
			}
			if n := ch.late.Load(); n != 0 {
				t.Errorf("%d host operations after the cancel", n)
			}
			if !cmerr.IsInterrupted(err) {
				t.Errorf("err = %v, want Interrupted", err)
			}
		})
	}
}

func runWithCall(ctx context.Context, p *Prober, _ []int) error {
	_, err := p.RunWith(ctx, RunOptions{SliceSources: true, NumIMCs: 2})
	return err
}

// TestCancelEndsRetryBackoff parks the retry of a stuck CPU's operation
// in a one-hour backoff: the cancel must end the sleep at once, and the
// sleeping retry must not touch the host again.
func TestCancelEndsRetryBackoff(t *testing.T) {
	m := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 21})
	fh := faulty.New(m, faulty.Options{Seed: 3, StuckCPUs: []int{5}})
	ch := &cancelHost{h: fh, watchCPU: 5, watched: make(chan struct{})}
	p, err := New(ch, Options{Seed: 1, RetryBackoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch.cancel = cancel
	watched := ch.watched
	var cancelled atomic.Int64
	go func() {
		<-watched
		// The first operation on the stuck CPU is about to fail; give its
		// retry time to enter the backoff sleep before cancelling.
		time.Sleep(20 * time.Millisecond)
		cancelled.Store(time.Now().UnixNano())
		ch.fire()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := p.MapCoresToCHAs(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if since := time.Duration(time.Now().UnixNano() - cancelled.Load()); since > time.Second {
			t.Errorf("returned %v after the cancel", since)
		}
		if !cmerr.IsInterrupted(err) {
			t.Errorf("err = %v, want Interrupted", err)
		}
		if n := ch.late.Load(); n != 0 {
			t.Errorf("%d host operations after the cancel", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the cancel did not end the retry backoff")
	}
}

// TestOpCountersSeeEveryAttempt pins where the counting decorator sits:
// below retry, so host/ops/* counts every attempt that reaches the host,
// retries included — exactly what the fault injector sees.
func TestOpCountersSeeEveryAttempt(t *testing.T) {
	m := machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 7})
	fh := faulty.New(m, faulty.Options{Seed: 3, Rate: 0.02, StuckCPUs: []int{5}})
	p, err := New(fh, Options{Seed: 1, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(obs.Config{})
	ctx := obs.With(context.Background(), tel)
	before := fh.Ops()
	if _, err := p.RunWith(ctx, RunOptions{SliceSources: true}); err != nil && !cmerr.IsDegraded(err) {
		t.Fatal(err)
	}
	injected := fh.Ops() - before
	counted := tel.Registry().Snapshot().Total("host/ops/")
	if counted != injected {
		t.Errorf("host/ops/* counted %d operations, the injector saw %d", counted, injected)
	}
	if fh.Injected() == 0 {
		t.Fatal("injector never fired; the test exercised nothing")
	}
	t.Logf("%d host operations, %d injected faults", counted, fh.Injected())
}

// TestMeasureMemoryTrafficRejectsIMC pins the IMC range check: an IMC no
// line can interleave to must fail at once instead of scanning forever.
func TestMeasureMemoryTrafficRejectsIMC(t *testing.T) {
	m := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 22})
	p := newProber(t, m)
	mapping, err := p.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ imc, numIMC int }{
		{2, 2}, {-1, 2}, {1, 0}, {1, -3},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		done := make(chan error, 1)
		go func() {
			_, err := p.MeasureMemoryTraffic(ctx, 0, mapping[0], tc.imc, tc.numIMC)
			done <- err
		}()
		select {
		case err := <-done:
			if !cmerr.IsPermanent(err) || !strings.Contains(err.Error(), fmt.Sprintf("IMC %d ", tc.imc)) {
				t.Errorf("imc=%d numIMC=%d: err = %v, want a Permanent error naming the IMC", tc.imc, tc.numIMC, err)
			}
		case <-time.After(2 * time.Second):
			cancel()
			t.Fatalf("imc=%d numIMC=%d: still running 2s after the call", tc.imc, tc.numIMC)
		}
		cancel()
	}
}

// TestBindSameContextIsFree pins the binding contract: rebinding the bound
// context allocates nothing and keeps the decorator, and a call that opens
// its own span hands the caller's binding back when it returns.
func TestBindSameContextIsFree(t *testing.T) {
	p := newProber(t, machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 21}))
	ctx := obs.With(context.Background(), obs.New(obs.Config{}))
	p.bind(ctx)
	h := p.host.h
	if n := testing.AllocsPerRun(100, func() { p.bind(ctx) }); n != 0 {
		t.Errorf("rebinding the bound context allocated %v times per call", n)
	}
	if _, err := p.MapCoresToCHAs(ctx); err != nil {
		t.Fatal(err)
	}
	if p.host.ctx != ctx {
		t.Error("MapCoresToCHAs did not restore the caller's binding")
	}
	if p.host.h != h {
		t.Error("binding contexts of one telemetry rebuilt the counting decorator")
	}
}
