// Package orphan is reached only by an example.
package orphan

// Hello is reached from examples/fleet.
func Hello() string { return "hello" }
