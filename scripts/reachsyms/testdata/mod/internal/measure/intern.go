package measure

import "net/netip"

// addrIntern is a second address table beside the network's: its map
// keyed by an address fires. A map holding addresses as values does not.
type addrIntern struct {
	ids   map[netip.Addr]uint32
	names map[string]netip.Addr
}
