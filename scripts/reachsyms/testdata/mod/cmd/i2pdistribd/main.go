// Command i2pdistribd reaches the campaign through internal/distrib, so
// it fires tools-skip-the-study.
package main

import "example.com/fixture/internal/distrib"

func main() { distrib.Hand(nil) }
