// Command i2pcensor builds and runs its study itself instead of calling
// studycli.Run: NewStudy and the RunAll method value fire one-study-run.
package main

import (
	"example.com/fixture/internal/cli"
	"example.com/fixture/internal/core"
)

func main() { cli.Main(core.NewStudy().RunAll) }
