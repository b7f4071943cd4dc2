// Package studycli sits below internal/cli but is no exit site: its
// os.Exit fires one-exit-site.
package studycli

import "os"

// Refuse exits on a bad flag.
func Refuse() { os.Exit(2) }
