// Package distrib reads the introducer pool itself.
package distrib

import "example.com/fixture/internal/sim"

// Hand counts the introducers of n.
func Hand(n *sim.Network) int { return len(n.Introducers()) }
