// Command tool reaches every package under internal/ but orphan and the
// harness. Its log.Fatal fires one-exit-site; the string below does not.
package main

import (
	"fmt"
	"log"
	"os"

	"example.com/fixture/internal/censor"
	"example.com/fixture/internal/cli"
	"example.com/fixture/internal/cli/studycli"
	"example.com/fixture/internal/distrib"
	"example.com/fixture/internal/faults"
	"example.com/fixture/internal/netdb"
	"example.com/fixture/internal/service"
	"example.com/fixture/internal/sim"
)

func main() {
	cli.Main(func() error {
		fmt.Println("os.Exit(", censor.Capture(&sim.Observer{}), distrib.Hand(&sim.Network{}), service.New(), netdb.Hash{})
		return nil
	})
	if len(os.Args) > 2 {
		faults.Exit(3)
	}
	if len(os.Args) > 3 {
		studycli.Refuse()
	}
	log.Fatal("past cli.Main")
}
