package distrib

import (
	"context"
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/censor"
)

// TestTrustGraphBuild: the invitation graph is deterministic in its
// config and structurally sound — parent/child links agree, roots and
// groups follow the invitation chain, invitees join one level below
// their inviter, and nobody exceeds their invitation budget or invites
// below trustInviteLevel.
func TestTrustGraphBuild(t *testing.T) {
	cfg := TrustGraphConfig{Users: 150, Seed: 11}
	g := NewTrustGraph(cfg)
	if g2 := NewTrustGraph(cfg); !reflect.DeepEqual(g.Users(), g2.Users()) {
		t.Fatal("graph build is not deterministic")
	}
	if g.Len() == 0 || g.Len() > 150 {
		t.Fatalf("population %d outside (0, 150]", g.Len())
	}
	for i, u := range g.Users() {
		if u.Index != i {
			t.Fatalf("user %d carries index %d", i, u.Index)
		}
		if got, ok := g.UserByID(u.ID); !ok || got.Index != i {
			t.Fatalf("user %d not resolvable by ID", i)
		}
		if u.Parent < 0 {
			if u.Root != i || u.Group != i || u.Depth != 0 || u.Level != trustMaxLevel {
				t.Fatalf("seed %d malformed: %+v", i, u)
			}
			continue
		}
		p := g.Users()[u.Parent]
		if p.Level < trustInviteLevel {
			t.Fatalf("user %d invited by level-%d parent (invite level %d)", i, p.Level, trustInviteLevel)
		}
		if want := p.Level - 1; u.Level != want && !(want < 0 && u.Level == 0) {
			t.Fatalf("user %d level %d, inviter level %d", i, u.Level, p.Level)
		}
		if u.Root != p.Root || u.Depth != p.Depth+1 {
			t.Fatalf("user %d chain broken: %+v under %+v", i, u, p)
		}
		if want := p.Group; u.Depth == 1 {
			if u.Group != u.Index {
				t.Fatalf("depth-1 user %d should anchor its own group", i)
			}
		} else if u.Group != want {
			t.Fatalf("user %d group %d, parent group %d", i, u.Group, want)
		}
		found := false
		for _, c := range p.Children {
			if c == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("user %d missing from inviter's children", i)
		}
	}
	for i, u := range g.Users() {
		if len(u.Children) > trustInviteBudget {
			t.Fatalf("user %d issued %d invitations, budget %d", i, len(u.Children), trustInviteBudget)
		}
	}
	if _, ok := g.UserByID(0xDEADBEEF); ok {
		t.Fatal("foreign identity resolved to a user")
	}
}

// TestTrustGraphSaturation: growth is invitation-bound — with depth
// capped by trustInviteLevel and budgets exhausted, the admitted
// population saturates below an oversized target. That bound is the
// enumeration resistance the model exists for.
func TestTrustGraphSaturation(t *testing.T) {
	g := NewTrustGraph(TrustGraphConfig{Users: 100000, Seed: 5})
	// Capacity: 4 seeds at level 5, then levels 4, 3 and 2 (can invite,
	// 3 each), then 1 (cannot): 4 * (1 + 3 + 9 + 27 + 81) = 484.
	if g.Len() != 484 {
		t.Fatalf("saturated population %d, want 484", g.Len())
	}
}

func TestTrustGraphRequestLimit(t *testing.T) {
	g := NewTrustGraph(TrustGraphConfig{Users: 10, Seed: 1})
	if got := g.RequestLimit(0); got != 1 {
		t.Fatalf("RequestLimit(0) = %d, want 1", got)
	}
	if got := g.RequestLimit(4); got != 5 {
		t.Fatalf("RequestLimit(4) = %d, want 5", got)
	}
	if got := g.RequestLimit(-3); got != 1 {
		t.Fatalf("RequestLimit(-3) = %d, want 1", got)
	}
}

// TestTrustSocialHandout: graph users receive their group's handout —
// branch-mates share bridges (distribution along graph edges) — while
// identities the graph never minted receive nothing.
func TestTrustSocialHandout(t *testing.T) {
	ts := NewTrustSocial(TrustSocialConfig{Graph: TrustGraphConfig{Users: 120, Seed: 9}})
	b := testBackend(t, []Distributor{NewHTTPS(), ts})
	part := b.Partition(ts.Name())
	if part == nil || part.Len() == 0 {
		t.Fatal("trust-social received no partition")
	}
	api := b.API()
	serve := func(id uint64, day, attempt int) []Resource {
		t.Helper()
		h, err := api.Serve(Request{Dist: ts.Name(), ID: id, Day: day, Attempt: attempt})
		if err != nil {
			t.Fatal(err)
		}
		return h.Resources
	}

	// Unknown identities: nothing.
	if hr := serve(0xBADBADBAD, 10, 0); hr != nil {
		t.Fatalf("unknown identity handout = %v; want nothing", hr)
	}

	g := ts.Graph()
	var a, bb TrustUser
	found := false
	for _, u := range g.Users() {
		if u.Depth < 1 {
			continue
		}
		for _, v := range g.Users() {
			if v.Index != u.Index && v.Group == u.Group {
				a, bb, found = u, v, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("graph draw produced no shared group; adjust the seed")
	}
	ha := serve(a.ID, 10, 0)
	if len(ha) == 0 {
		t.Fatalf("user handout = %v", ha)
	}
	hb := serve(bb.ID, 10, 0)
	if !reflect.DeepEqual(ha, hb) {
		t.Fatal("group-mates received different handouts")
	}
	// Attempts rotate to a fresh arc without moving branch-mates.
	if h1 := serve(a.ID, 10, 1); part.Len() > trustHandout && reflect.DeepEqual(h1, ha) {
		t.Fatal("re-request attempt did not rotate the arc")
	}
}

// TestTrustSocialOnRegularSweep: the trust-social frontend rides the
// plain cell-level distrib.Sweep as an ordinary stateless Distributor,
// and the crawler — minting identities the graph never issued —
// enumerates exactly nothing while the insider still leaks.
func TestTrustSocialOnRegularSweep(t *testing.T) {
	n := network(t)
	ts := NewTrustSocial(TrustSocialConfig{Graph: TrustGraphConfig{Users: 150, Seed: 3}})
	sw, err := NewSweep(n, SweepConfig{
		Strategy:     censor.BridgeCombined,
		Distributors: []Distributor{NewHTTPS(), ts},
		Enumerators:  []Enumerator{{Kind: Crawler, Budget: 200}},
		Days:         []int{10},
		HorizonDays:  6,
		Users:        30,
		SeedBase:     77,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Distributor != ts.Name() {
			continue
		}
		if got := r.Enumerated[len(r.Enumerated)-1]; got != 0 {
			t.Errorf("crawler enumerated %.2f of the trust-social partition; uninvited identities must get nothing", got)
		}
	}
}
