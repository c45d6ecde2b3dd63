package probe

import (
	"context"
	"errors"
	"testing"
	"time"

	"coremap/internal/cmerr"
	"coremap/internal/hostif"
	"coremap/internal/msr"
)

// flakyHost fails every MSR read with a Transient error until `failures`
// attempts have been burned, then succeeds.
type flakyHost struct {
	hostif.Host
	failures int
	attempts int
}

func (f *flakyHost) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	f.attempts++
	if f.attempts <= f.failures {
		return 0, cmerr.New(cmerr.Transient, "test", "flaky rdmsr").WithOp("rdmsr").OnCPU(cpu)
	}
	return 42, nil
}

// nullHost is the do-nothing base for the flaky decorator.
type nullHost struct{}

func (nullHost) NumCPUs() int                          { return 1 }
func (nullHost) ReadMSR(int, msr.Addr) (uint64, error) { return 0, nil }
func (nullHost) WriteMSR(int, msr.Addr, uint64) error  { return nil }
func (nullHost) Load(int, uint64) error                { return nil }
func (nullHost) Store(int, uint64) error               { return nil }
func (nullHost) Flush(int, uint64) error               { return nil }
func (nullHost) TimedLoad(int, uint64) (uint64, error) { return 0, nil }

func TestRetryAbsorbsTransientFaults(t *testing.T) {
	// Three retries cover up to three consecutive transient failures.
	f := &flakyHost{Host: nullHost{}, failures: 3}
	r := &hostOps{h: f, ctx: context.Background(), retries: 3, backoff: time.Microsecond}
	v, err := r.ReadMSR(0, 0x100)
	if err != nil {
		t.Fatalf("retry did not absorb %d transient faults: %v", f.failures, err)
	}
	if v != 42 {
		t.Errorf("value = %d, want 42", v)
	}
	if f.attempts != 4 {
		t.Errorf("attempts = %d, want 4", f.attempts)
	}
}

func TestRetryExhaustionEscalatesToPermanent(t *testing.T) {
	f := &flakyHost{Host: nullHost{}, failures: 1 << 30}
	r := &hostOps{h: f, ctx: context.Background(), retries: 3, backoff: time.Microsecond}
	_, err := r.ReadMSR(7, 0x100)
	if err == nil {
		t.Fatal("persistent transient fault succeeded")
	}
	if !cmerr.IsPermanent(err) {
		t.Errorf("exhausted retries are classified %v, want Permanent", cmerr.ClassOf(err))
	}
	if cmerr.ClassOf(err) != cmerr.Permanent {
		t.Errorf("outermost class = %v, want Permanent", cmerr.ClassOf(err))
	}
	// The transient cause stays reachable for callers that care.
	if !errors.Is(err, cmerr.Transient) {
		t.Errorf("escalated error no longer matches the inner Transient cause")
	}
	var ce *cmerr.Error
	if !errors.As(err, &ce) || ce.CPU != 7 || ce.Op != "rdmsr" {
		t.Errorf("escalated error lost provenance: %+v", ce)
	}
	if f.attempts != 4 {
		t.Errorf("attempts = %d, want 4 (1 initial + 3 retries)", f.attempts)
	}
}

func TestRetryPassesNonTransientThrough(t *testing.T) {
	calls := 0
	hard := cmerr.New(cmerr.Permanent, "test", "broken")
	f := &funcHost{Host: nullHost{}, load: func(int, uint64) error { calls++; return hard }}
	r := &hostOps{h: f, ctx: context.Background(), retries: 3, backoff: time.Microsecond}
	if err := r.Load(0, 0); !errors.Is(err, hard) {
		t.Fatalf("err = %v, want the permanent cause", err)
	}
	if calls != 1 {
		t.Errorf("permanent error was retried %d times", calls)
	}
}

func TestRetryHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &flakyHost{Host: nullHost{}, failures: 1 << 30}
	// A long backoff would hang here if the sleep ignored the context.
	r := &hostOps{h: f, ctx: ctx, retries: 3, backoff: time.Hour}
	start := time.Now()
	_, err := r.ReadMSR(0, 0x100)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatalf("cancelled retry slept %v", time.Since(start))
	}
	if !cmerr.IsInterrupted(err) {
		t.Errorf("err = %v, want Interrupted", err)
	}
}

func TestRetryDisabled(t *testing.T) {
	f := &flakyHost{Host: nullHost{}, failures: 1}
	r := &hostOps{h: f, ctx: context.Background(), retries: 0, backoff: time.Microsecond}
	if _, err := r.ReadMSR(0, 0x100); !cmerr.IsTransient(err) {
		t.Fatalf("retries=0 must pass the transient fault through, got %v", err)
	}
	if f.attempts != 1 {
		t.Errorf("attempts = %d, want 1", f.attempts)
	}
}

// funcHost overrides Load with a closure.
type funcHost struct {
	hostif.Host
	load func(int, uint64) error
}

func (f *funcHost) Load(cpu int, addr uint64) error { return f.load(cpu, addr) }
