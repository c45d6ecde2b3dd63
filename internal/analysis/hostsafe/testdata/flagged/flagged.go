// Fixture: raw host access and undisciplined randomness. The package
// name (experiments) carries no HostOpExempt or ClockExempt entry, so
// every rule applies.
package experiments

import (
	"math/rand"
	"time"

	"coremap/internal/hostif"
)

// Raw host operations bypass the probe's host-op decorator.
func Poke(h hostif.Host) error {
	if err := h.Store(0, 0x1000); err != nil { // want `raw hostif Store call`
		return err
	}
	_, err := h.ReadMSR(0, 0x10) // want `raw hostif ReadMSR call`
	return err
}

// Global-source randomness is irreproducible.
func Jitter() int {
	return rand.Intn(10) // want `global math/rand source`
}

// Clock-seeded RNGs are irreproducible even with an explicit source;
// the clock read itself is a second, independent violation.
func NewRNG() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `seeded from time.Now` `time.Now reads the wall clock directly`
}
