// Fixture: context-discipline violations. The package name opts into
// the loop rule (probe is a pipeline stage).
package probe

import "context"

// sampler is an interface boundary: dispatch through it can block or
// measure, so loops of such calls need a cancellation point.
type sampler interface {
	Sample(cpu int) error
}

// Detached root in a library package: the stage escapes the command's
// timeout and signal handling.
func Detached() context.Context {
	return context.Background() // want `detached root`
}

// TODO roots are no better.
func Todo() context.Context {
	return context.TODO() // want `detached root`
}

// A context parameter anywhere but first is a misplaced context.
func Measure(cpu int, ctx context.Context) error { // want `first parameter`
	return ctx.Err()
}

// Function literals follow the same convention.
var handler = func(n int, ctx context.Context) {} // want `first parameter`

// A measurement loop that never observes cancellation: neither ctx nor a
// hostif.Host appears in the body.
func Sweep(ctx context.Context, m sampler, cores []int) error {
	for _, c := range cores { // want `never observes cancellation`
		if err := m.Sample(c); err != nil {
			return err
		}
	}
	return nil
}

// Packaging the dispatch in a closure changes nothing: work is work.
func SweepDeferred(ctx context.Context, m sampler, cores []int) error {
	for _, c := range cores { // want `never observes cancellation`
		f := func() error { return m.Sample(c) }
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}
