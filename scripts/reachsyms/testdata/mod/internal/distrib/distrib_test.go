package distrib

import (
	"testing"

	"example.com/fixture/internal/sim"
)

var byNetwork map[*sim.Network]int

func TestHand(t *testing.T) {
	byNetwork[&sim.Network{}] = Hand(&sim.Network{})
}
