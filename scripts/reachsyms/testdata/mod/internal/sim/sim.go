// Package sim imports internal/cache through internal/draw and exits
// through an aliased os.
package sim

import (
	xos "os"

	"example.com/fixture/internal/draw"
)

// Network is what network-keyed caches are keyed by.
type Network struct{}

// Introducers is the introducer pool distrib must not draw.
func (*Network) Introducers() []int { return nil }

// Observer draws days.
type Observer struct{}

// ObserveDay is the sighting list internal/censor must not build.
func (*Observer) ObserveDay(day int) []int {
	if day < 0 {
		xos.Exit(1)
	}
	return draw.Positions(day)
}
