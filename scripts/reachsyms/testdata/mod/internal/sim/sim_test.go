package sim

import (
	"testing"

	"example.com/fixture/internal/churn"
)

// A test reading a chain probability back fires nothing.
func TestMaxAge(t *testing.T) {
	if maxAge(churn.ClassParams{SpanFloor: 1, SpanMean: 1, OnOn: 1}) != 9 {
		t.Fatal("maxAge")
	}
}
