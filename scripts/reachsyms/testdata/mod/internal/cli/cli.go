// Package cli is the one exit site.
package cli

import "os"

// Main runs run and exits 1 on its error.
func Main(run func() error) {
	if err := run(); err != nil {
		os.Exit(1)
	}
}
