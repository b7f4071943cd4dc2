// Package studycli sits below internal/cli but is no exit site: its
// os.Exit fires one-exit-site. Its Run builds and runs a study, which
// one-study-run allows outside cmd/.
package studycli

import (
	"os"

	"example.com/fixture/internal/core"
)

// Refuse exits on a bad flag.
func Refuse() { os.Exit(2) }

// Run is the study run.
func Run() error { return core.NewStudy().RunAll() }
