package lib

import (
	"fmt"
	"testing"
)

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 {
		t.Fatal("TestOnly")
	}
	check(t)
	if fmt.Sprint(newReferenceCounter()) != "1" {
		t.Fatal("referenceCounter")
	}
}

// referenceOrphan is a reference no test reaches.
func referenceOrphan() int { return TestOnly() }

// referenceHelped is reached only through check, a helper.
func referenceHelped() int { return 1 }

func check(t *testing.T) {
	if referenceHelped() != TestOnly() {
		t.Fatal("referenceHelped")
	}
}

// referenceCounter is reached only through its constructor, and String
// only through fmt.Stringer, so referenceStep is reached only through the
// type's methods.
type referenceCounter struct{ n int }

func newReferenceCounter() *referenceCounter { return &referenceCounter{n: 1} }

func (c *referenceCounter) String() string { return fmt.Sprint(referenceStep(c.n)) }

// referenceStep is reached only through a method of referenceCounter.
func referenceStep(n int) int { return n }
