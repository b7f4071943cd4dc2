// Package lib is the gated package of the reachsyms fixture.
package lib

// Entry is called from main.
func Entry() { Helper() }

// Helper is reached only through Entry, from the same package.
func Helper() {}

// Dead is referenced by nothing.
func Dead() {}

// TestOnly is referenced only by lib_test.go.
func TestOnly() int { return 1 }

// Allowed is referenced by nothing and kept by allow.txt.
func Allowed() {}

// Recursive is referenced only from inside its own declaration.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Name is printed by main, which reaches String through fmt.Stringer.
type Name string

func (n Name) String() string { return string(n) }

// Loud is a method nothing calls and no interface declares.
func (n Name) Loud() string { return string(n) + "!" }

// Shape is an interface the module declares.
type Shape interface{ Area() float64 }

// Square satisfies Shape; main calls Area only through the interface.
type Square struct{}

func (Square) Area() float64 { return 1 }

// Reference is a test oracle kept in non-test code; main calls it, so
// only references-held fires on it.
func (Square) Reference() float64 { return 1 }
