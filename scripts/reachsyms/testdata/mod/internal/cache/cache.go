// Package cache is the memo package internal/sim must not import, even
// two levels down. Declaring WindowCounter here fires nothing: only
// internal/censor may not name it.
package cache

// WindowCounter is a sliding multiset.
type WindowCounter struct{ n int }

// NewWindowCounter returns a counter over n days.
func NewWindowCounter(n int) *WindowCounter { return &WindowCounter{n} }
