// Package core is the study. Only studycli builds and runs one.
package core

// Study runs experiments.
type Study struct{}

// NewStudy builds a study.
func NewStudy() *Study { return &Study{} }

// RunAll runs every experiment.
func (*Study) RunAll() error { return nil }
