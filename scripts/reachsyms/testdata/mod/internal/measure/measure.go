// Package measure is the campaign package: its WaitGroup, reached through
// an aliased sync, is a second pool beside internal/pool and fires.
package measure

import (
	xsync "sync"

	"example.com/fixture/internal/pool"
)

// Days runs one day on the pool and one beside it.
func Days() int {
	var wg xsync.WaitGroup
	wg.Add(1)
	go wg.Done()
	pool.Run(func() {})
	wg.Wait()
	return 2
}
