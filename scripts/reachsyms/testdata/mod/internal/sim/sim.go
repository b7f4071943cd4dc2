// Package sim imports internal/cache through internal/draw, exits
// through an aliased os, and works out a class's oldest age itself.
package sim

import (
	xos "os"

	"example.com/fixture/internal/churn"
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

// maxAge is the arithmetic over a class's span that churn owns.
func maxAge(c churn.ClassParams) int { return int(c.SpanFloor + 8*c.SpanMean) }
