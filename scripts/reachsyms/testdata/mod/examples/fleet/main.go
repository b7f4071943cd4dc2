// Command fleet is an example: it reaches internal/orphan, which does not
// count for package-reach, and declares a union helper.
package main

import (
	"fmt"

	"example.com/fixture/internal/orphan"
)

// ObserveGrid is a second union path.
type ObserveGrid [][]int

func main() { fmt.Println(orphan.Hello()) }
