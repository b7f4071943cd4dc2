package censor_test

import (
	"net/netip"
	"sync"
	"testing"

	"example.com/fixture/internal/censor"
	"example.com/fixture/internal/sim"
)

var captured = new(sync.Map)

// An address-keyed map in a _test.go file is a test's oracle: it fires
// nothing.
var seenAddrs = map[netip.Addr]bool{}

func TestCapture(t *testing.T) {
	var local sync.Map // not package-level: fires nothing
	local.Store(censor.Capture(&sim.Observer{}), captured)
}
