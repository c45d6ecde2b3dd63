// Fixture: sanctioned context patterns that must stay unflagged.
package covert

import (
	"context"
	"fmt"
	"strings"

	"coremap/internal/hostif"
)

func step(context.Context, int) error { return nil }

// sampler is an interface boundary whose loops must observe ctx.
type sampler interface {
	Sample(cpu int) error
}

// The defensive nil-guard default is legal: it normalizes a caller's
// nil, it does not detach the stage from a live caller context.
func Run(ctx context.Context, cores []int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, c := range cores {
		if err := step(ctx, c); err != nil {
			return err
		}
	}
	return nil
}

// Polling ctx.Err at the loop head observes cancellation, so interface
// dispatch in the body is legal.
func Poll(ctx context.Context, m sampler, cores []int) error {
	for _, c := range cores {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := m.Sample(c); err != nil {
			return err
		}
	}
	return nil
}

// Operations through a hostif.Host are cancellation points: they run
// behind the probe's host-op decorator, which checks ctx on every call.
func Warm(ctx context.Context, h hostif.Host, addrs []uint64) error {
	for _, a := range addrs {
		if err := h.Load(0, a); err != nil {
			return err
		}
	}
	return nil
}

// Loops over in-memory data calling concrete methods and package
// functions are pure computation on the caller's schedule: the pipeline
// cancels at operation boundaries, not mid-arithmetic.
func Report(ctx context.Context, xs []int) string {
	_ = ctx
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%d\n", x)
	}
	return b.String()
}

// Pure computation loops (no calls) need no cancellation point.
func Sum(ctx context.Context, xs []int) int {
	_ = ctx
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Context-free functions are outside the loop rule: they cannot observe
// what they were never given (ctxflow's boundary rules police who must
// accept a context).
func Fold(xs []int, f func(int) int) int {
	acc := 0
	for _, x := range xs {
		acc += f(x)
	}
	return acc
}
