package probe

import (
	"context"
	"time"

	"coremap/internal/cmerr"
	"coremap/internal/hostif"
	"coremap/internal/msr"
	"coremap/internal/obs"
)

// hostOps is the probe's one host-op decorator: every operation of a
// Prober passes through it, then through hostif.Counting (under telemetry
// only), then reaches the caller's host. Before every attempt it checks
// the bound context and returns a cmerr.Interrupted error (stage "host")
// once it is cancelled, so a measurement stops within one hardware
// operation of the deadline — microseconds on real silicon, nanoseconds
// against the simulator.
//
// An operation failing with a cmerr.Transient error — the class a flaky
// MSR read or an injected fault carries — is retried up to `retries` more
// times with exponential backoff before being escalated to
// cmerr.Permanent ("retries exhausted"). Non-transient errors pass through
// untouched, so a cancelled context or a structural failure never burns
// the retry budget.
//
// Retry lives at the operation level rather than the experiment level on
// purpose: a measurement experiment performs thousands of host operations,
// so even a small per-op transient fault rate would make every
// experiment-level retry fail somewhere and the pipeline would never
// converge. Retrying the single failed operation keeps the effective
// failure probability at rateⁿ⁺¹ per op, which the degradation layer in
// RunWith can absorb.
type hostOps struct {
	h       hostif.Host
	ctx     context.Context
	retries int           // 0: one attempt, transient errors pass through
	backoff time.Duration // initial retry delay; <= 0 never sleeps
	retried *obs.Counter  // probe/retries; nil (no-op) without telemetry
	// seq counts the operations issued, retries not included; the home
	// test uses it to tell whether anything ran since its last read.
	seq uint64
}

// sleepCtx waits for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return cmerr.FromContext(ctx, "probe")
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return cmerr.FromContext(ctx, "probe")
	case <-t.C:
		return nil
	}
}

// do runs fn under the context check and the retry policy.
func (r *hostOps) do(op string, cpu int, fn func() error) error {
	r.seq++
	var err error
	backoff := r.backoff
	for attempt := 0; ; attempt++ {
		if err = cmerr.FromContext(r.ctx, "host"); err != nil {
			return err
		}
		err = fn()
		if err == nil || !cmerr.IsTransient(err) || attempt >= r.retries {
			break
		}
		r.retried.Inc()
		if serr := sleepCtx(r.ctx, backoff); serr != nil {
			return serr
		}
		backoff *= 2
	}
	if err != nil && r.retries > 0 && cmerr.IsTransient(err) {
		return cmerr.Wrapf(cmerr.Permanent, "probe", err,
			"%s retries exhausted after %d attempts", op, r.retries+1).WithOp(op).OnCPU(cpu)
	}
	return err
}

func (r *hostOps) NumCPUs() int { return r.h.NumCPUs() }

func (r *hostOps) ReadMSR(cpu int, a msr.Addr) (uint64, error) {
	var v uint64
	err := r.do("rdmsr", cpu, func() (e error) { v, e = r.h.ReadMSR(cpu, a); return })
	return v, err
}

func (r *hostOps) WriteMSR(cpu int, a msr.Addr, v uint64) error {
	return r.do("wrmsr", cpu, func() error { return r.h.WriteMSR(cpu, a, v) })
}

func (r *hostOps) Load(cpu int, addr uint64) error {
	return r.do("load", cpu, func() error { return r.h.Load(cpu, addr) })
}

func (r *hostOps) TimedLoad(cpu int, addr uint64) (uint64, error) {
	var c uint64
	err := r.do("timed-load", cpu, func() (e error) { c, e = r.h.TimedLoad(cpu, addr); return })
	return c, err
}

func (r *hostOps) Store(cpu int, addr uint64) error {
	return r.do("store", cpu, func() error { return r.h.Store(cpu, addr) })
}

func (r *hostOps) Flush(cpu int, addr uint64) error {
	return r.do("flush", cpu, func() error { return r.h.Flush(cpu, addr) })
}
