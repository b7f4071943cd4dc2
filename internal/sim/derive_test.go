package sim

import (
	"sync"
	"sync/atomic"
	"testing"
)

type (
	deriveKeyA struct{}
	deriveKeyB struct{}
)

func deriveNet(t *testing.T) *Network {
	t.Helper()
	n, err := New(Config{Seed: 1, Days: 3, TargetDailyPeers: 50})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDeriveBuildsOncePerNetworkAndKey: concurrent first callers of one
// key share a single build and its value; a second network derives its
// own.
func TestDeriveBuildsOncePerNetworkAndKey(t *testing.T) {
	n := deriveNet(t)
	var builds atomic.Int32
	build := func() *int { builds.Add(1); return new(int) }
	got := make([]*int, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Derive(n, deriveKeyA{}, build)
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times on one network, want 1", builds.Load())
	}
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got a different value", i)
		}
	}
	if other := Derive(deriveNet(t), deriveKeyA{}, build); other == got[0] || builds.Load() != 2 {
		t.Fatalf("second network shared the first one's value (builds = %d)", builds.Load())
	}
}

// TestDeriveKeysAreIndependent: a build blocked on key A holds up neither
// another key's first caller nor a build that derives another key from
// inside itself (censor's index derives the network's AddrTable that
// way).
func TestDeriveKeysAreIndependent(t *testing.T) {
	n := deriveNet(t)
	entered, release := make(chan struct{}), make(chan struct{})
	a := make(chan int)
	go func() {
		a <- Derive(n, deriveKeyA{}, func() int {
			close(entered)
			<-release
			return 1 + Derive(n, deriveKeyB{}, func() int { t.Error("key B built twice"); return 0 })
		})
	}()
	<-entered // A's build is in flight
	if b := Derive(n, deriveKeyB{}, func() int { return 41 }); b != 41 {
		t.Fatalf("key B = %d, want 41", b)
	}
	close(release)
	if got := <-a; got != 42 {
		t.Fatalf("key A = %d, want 42", got)
	}
}
