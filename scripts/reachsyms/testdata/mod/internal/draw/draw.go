// Package draw is the step between internal/sim and internal/cache.
package draw

import "example.com/fixture/internal/cache"

// Positions memoizes a day's draw.
func Positions(day int) []int {
	_ = cache.NewWindowCounter(day)
	return nil
}
