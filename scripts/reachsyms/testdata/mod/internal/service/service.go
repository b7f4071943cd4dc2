// Package service publishes through epoch and ProberState pointers, which
// fire nothing, and through a Value and a third pointer, which fire.
package service

import "sync/atomic"

type epoch struct{}

// ProberState is the last probe sweep.
type ProberState struct{}

// Service holds the published pointers.
type Service struct {
	cur    atomic.Pointer[epoch]
	prober atomic.Pointer[ProberState]
	snap   atomic.Value
	hits   atomic.Pointer[int]
}

// New returns an empty service.
func New() *Service { return &Service{} }
