// Package pool is the one package whose WaitGroup fires nothing.
package pool

import "sync"

// Run runs fn on two goroutines and waits for both.
func Run(fn func()) {
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}
