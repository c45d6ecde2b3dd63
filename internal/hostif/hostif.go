// Package hostif defines the hardware-abstraction boundary between the
// core-locating tool and the machine it measures.
//
// On real hardware, an implementation of Host would wrap
// sched_setaffinity-pinned worker threads, /dev/cpu/*/msr reads and writes
// (root only), and ordinary pointer loads/stores on mapped memory — the
// awkward thread-pinning and MSR plumbing the original tool needs. In this
// repository, internal/machine provides a simulated Xeon implementation, so
// the probe, locator and covert-channel code run unchanged against either.
//
// Besides Host the package holds one transparent decorator, Counting,
// which counts operations into a telemetry registry. Cancellation and
// transient-fault retry live above it: the probe passes every operation
// through its own host-op decorator, which checks the call's context
// before each attempt and retries transient failures.
package hostif

import "coremap/internal/msr"

// Host is one measurable CPU socket.
//
// CPU numbers are OS logical CPU IDs in [0, NumCPUs). The mapping from OS
// CPU IDs to physical tiles is exactly what the locating method recovers;
// implementations must not leak it through this interface.
type Host interface {
	// NumCPUs returns the number of online logical CPUs.
	NumCPUs() int

	// ReadMSR performs an RDMSR on the given CPU. Uncore registers are
	// socket-scoped and return the same value from every CPU; core-
	// scoped registers (thermal status) read the targeted core.
	ReadMSR(cpu int, a msr.Addr) (uint64, error)

	// WriteMSR performs a WRMSR on the given CPU.
	WriteMSR(cpu int, a msr.Addr, v uint64) error

	// Load executes a memory read of addr as if by a thread pinned to
	// cpu.
	Load(cpu int, addr uint64) error

	// TimedLoad is Load plus an rdtsc-style cycle measurement of the
	// access, the primitive latency-based locating baselines use.
	TimedLoad(cpu int, addr uint64) (cycles uint64, err error)

	// Store executes a memory write of addr as if by a thread pinned to
	// cpu.
	Store(cpu int, addr uint64) error

	// Flush evicts the cache line containing addr from cpu's private
	// caches (clflush).
	Flush(cpu int, addr uint64) error
}
