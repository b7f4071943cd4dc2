// Command i2psim exits through cli.Main and reaches no campaign.
package main

import "example.com/fixture/internal/cli"

func main() { cli.Main(func() error { return nil }) }
