// Package faults keeps the injected exit.
package faults

import "os"

// Exit is the injected hard exit.
func Exit(code int) { os.Exit(code) }
