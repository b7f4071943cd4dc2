// Package cli is the lifecycle every binary shares: Main, the one exit
// site, and SignalContext. A command is a run() error handed to Main, so
// every failure path returns through its deferred stops (a failed or
// interrupted run still writes its profiles and closes its trace). It
// imports only faults; the study binaries' flag block is studycli.
package cli

import (
	"context"
	"errors"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/i2pstudy/i2pstudy/internal/faults"
)

// Main runs a command and is its only exit site: an error is reported
// on stderr under the command's name and exits 1, cancellation as a
// plain "interrupted". A run that succeeds without firing its -inject
// fails too (faults.Unfired), so a crash drill aimed at a point the run
// never reaches cannot pass.
func Main(name string, run func() error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	err := run()
	if err == nil {
		err = faults.Unfired()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}
}

// SignalContext returns a context that SIGINT or SIGTERM cancels, and
// the stop that releases the handler. A command whose work cannot watch
// a context installs none, so Ctrl-C still kills it at once.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
