package distrib

import (
	"sync"
	"testing"

	"example.com/fixture/internal/sim"
)

var byNetwork map[*sim.Network]int

// A test's WaitGroup is not a second pool.
func TestHand(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		byNetwork[&sim.Network{}] = Hand(&sim.Network{})
	}()
	wg.Wait()
}
