// Package censor names a WindowCounter in this comment, which fires
// nothing, and the forms below, which fire.
package censor

import (
	"sync"

	"example.com/fixture/internal/cache"
	"example.com/fixture/internal/sim"
)

var (
	seen sync.Map
)

// Capture takes ObserveDay as a method value and builds a window counter.
func Capture(o *sim.Observer) int {
	f := o.ObserveDay
	w := cache.NewWindowCounter(len(f(0)))
	seen.Store(w, true)
	return 0
}
