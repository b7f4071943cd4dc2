// Package netdb declares the identity hash a peer publishes.
package netdb

// Hash is a router identity hash.
type Hash [32]byte
