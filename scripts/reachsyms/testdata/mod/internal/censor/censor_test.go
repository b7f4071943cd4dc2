package censor_test

import (
	"sync"
	"testing"

	"example.com/fixture/internal/censor"
	"example.com/fixture/internal/sim"
)

var captured = new(sync.Map)

func TestCapture(t *testing.T) {
	var local sync.Map // not package-level: fires nothing
	local.Store(censor.Capture(&sim.Observer{}), captured)
}
