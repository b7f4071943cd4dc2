// Command i2psim exits through cli.Main and reaches no campaign. It
// spells a presence-chain probability, which only internal/churn may.
package main

import (
	"example.com/fixture/internal/churn"
	"example.com/fixture/internal/cli"
)

func main() {
	cli.Main(func() error {
		_ = churn.ClassParams{OffOn: 0.5}.Presence()
		return nil
	})
}
