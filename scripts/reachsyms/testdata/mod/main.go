// Command fixture is the non-test root that reaches into internal/lib.
package main

import (
	"fmt"

	"example.com/fixture/internal/lib"
)

func main() {
	lib.Entry()
	fmt.Println(lib.Name("x"))
	var s lib.Shape = lib.Square{}
	fmt.Println(s.Area())
	fmt.Println(lib.Square{}.Reference())
}
