package measure

import "example.com/fixture/internal/netdb"

// tracks is a second peer index beside the network's: its map keyed by an
// identity hash fires. A slice of hashes, or a map holding them as
// values, does not.
type tracks struct {
	byHash map[netdb.Hash]int32
	ids    []netdb.Hash
	names  map[int32]netdb.Hash
}
