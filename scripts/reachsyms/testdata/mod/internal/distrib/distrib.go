// Package distrib reads the introducer pool itself and imports the
// campaign package.
package distrib

import (
	"example.com/fixture/internal/measure"
	"example.com/fixture/internal/sim"
)

// Hand counts the introducers of n and the campaign's days.
func Hand(n *sim.Network) int { return len(n.Introducers()) + measure.Days() }
