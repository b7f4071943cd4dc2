package i2pstudy_test

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy"
	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/eepsite"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

func TestFacadeAPI(t *testing.T) {
	if len(i2pstudy.Experiments()) < 20 {
		t.Fatalf("registry too small: %d", len(i2pstudy.Experiments()))
	}
	if _, ok := i2pstudy.Lookup("figure-13"); !ok {
		t.Fatal("figure-13 missing from facade")
	}
	opts := i2pstudy.DefaultOptions()
	if opts.TargetDailyPeers <= 0 || opts.Days < 40 {
		t.Fatal("default options malformed")
	}
	full := i2pstudy.FullScaleOptions()
	if full.TargetDailyPeers != 30500 || full.Days != 90 {
		t.Fatal("full-scale options do not match the paper")
	}
}

// TestEndToEndPipeline drives the whole stack through its product paths:
// simulate -> observe -> persist netDb to disk -> reload -> reseed a fresh
// client through a signed seed bundle -> fetch an eepsite -> then repeat
// the fetch under a censor blacklist.
func TestEndToEndPipeline(t *testing.T) {
	network, err := sim.New(sim.Config{Seed: 77, Days: 42, TargetDailyPeers: 1500})
	if err != nil {
		t.Fatal(err)
	}
	day := 20
	now := network.DayTime(day)

	// Step 1: a measurement campaign with on-disk snapshots (the paper's
	// netDb-directory watching), over three days.
	snapDir := t.TempDir()
	campaign, err := measure.NewCampaign(network, measure.CampaignConfig{
		Observers:   measure.DefaultObserverFleet(4),
		StartDay:    day,
		EndDay:      day + 3,
		SnapshotDir: snapDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ds.TotalPeers() == 0 {
		t.Fatal("campaign observed nothing")
	}

	// Step 2: reload each day's snapshot from disk — every record must
	// parse and carry a verifiable integrity tag — and count it the
	// paper's way, from the files: the counts must be the campaign's
	// DayStats exactly.
	var store *netdb.Store
	for _, stats := range ds.Days {
		dayStore := netdb.NewStore()
		dir := filepath.Join(snapDir, fmt.Sprintf("day-%03d", stats.Day), "netDb")
		if _, err := dayStore.LoadDir(dir); err != nil {
			t.Fatal(err)
		}
		if got, want := snapshotCounts(dayStore.RouterInfos()), dayStatsCounts(stats); !maps.Equal(got, want) {
			t.Fatalf("day %d: the netDb files count %v, the campaign %v", stats.Day, got, want)
		}
		if stats.Day == day {
			store = dayStore
		}
	}

	// Step 3: a reseed server backed by the reloaded store hands a fresh
	// client its records as a signed seed bundle.
	srv := reseed.NewServer(75, store.RouterInfos, 5)
	data, err := reseed.CreateBundle(srv.Fetch("203.0.113.7"), "integration-reseed", now)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := reseed.ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Records) == 0 {
		t.Fatal("empty reseed bundle")
	}
	clientStore := netdb.NewStore()
	for _, ri := range bundle.Records {
		clientStore.PutRouterInfo(ri)
	}

	// Step 4: the bootstrapped client fetches an eepsite through tunnels
	// drawn from its fresh netDb.
	rng := rand.New(rand.NewPCG(9, 9))
	candidates := clientStore.RouterInfos()
	site := eepsite.NewSite(netdb.HashFromUint64(31337))
	client := eepsite.NewClient(candidates, nil)
	res, err := client.Fetch(site, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeout() {
		t.Fatal("unblocked fetch timed out")
	}

	// Step 5: a censor blacklists the network; the same client's fetches
	// degrade into 504s.
	sw, err := censor.NewSweep(network, censor.SweepConfig{
		Fleets: []int{20}, Windows: []int{5}, Days: []int{day}, SeedBase: 404,
	})
	if err != nil {
		t.Fatal(err)
	}
	bl := sw.Blacklist(sw.Cells()[0])
	ix := censor.IndexFor(network)
	byHash := make(map[netdb.Hash]int)
	for _, idx := range network.ActivePeers(day) {
		byHash[network.Peers[idx].ID] = int(idx)
	}
	blocked := func(h netdb.Hash) bool {
		idx, ok := byHash[h]
		return ok && ix.PeerBlocked(bl, idx, day)
	}
	blockedClient := eepsite.NewClient(candidates, blocked)
	stats, err := blockedClient.Crawl(site, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TimeoutPct() < 30 {
		t.Fatalf("strong censor produced only %.0f%% timeouts", stats.TimeoutPct())
	}
	if stats.MeanLoad <= res.LoadTime {
		t.Fatal("blocking did not increase load time")
	}
}

// snapshotCounts counts one day's reloaded RouterInfos the way the paper
// post-processed its netDb archive (Sections 5.1 and 5.3): peers, flags,
// the unknown-IP decomposition, distinct IPv4s and every published class
// letter.
func snapshotCounts(ris []*netdb.RouterInfo) map[string]int {
	c := map[string]int{"peers": len(ris)}
	v4 := make(map[netip.Addr]bool)
	for _, ri := range ris {
		if ri.Caps.Floodfill {
			c["floodfill"]++
		}
		if ri.Caps.Reachable {
			c["reachable"]++
		}
		if ri.UnknownIP() {
			c["unknown-ip"]++
		}
		if ri.Firewalled() {
			c["firewalled"]++
		}
		if ri.HiddenPeer() {
			c["hidden"]++
		}
		if ri.Firewalled() && ri.HiddenPeer() {
			c["overlap"]++
		}
		for _, a := range ri.IPs() {
			if a.Is4() {
				v4[a] = true
			}
		}
		for _, cl := range ri.Caps.PublishedClasses() {
			c["class-"+cl.String()]++
		}
	}
	c["ipv4"] = len(v4)
	maps.DeleteFunc(c, isZero)
	return c
}

// dayStatsCounts is snapshotCounts' view of a campaign day.
func dayStatsCounts(s *measure.DayStats) map[string]int {
	c := map[string]int{
		"peers": s.Peers, "floodfill": s.Floodfill, "reachable": s.Reachable,
		"unknown-ip": s.UnknownIP, "firewalled": s.Firewalled, "hidden": s.Hidden,
		"overlap": s.Overlap, "ipv4": s.IPv4,
	}
	for cl, n := range s.ClassCounts {
		c["class-"+cl.String()] = n
	}
	maps.DeleteFunc(c, isZero)
	return c
}

// isZero drops the counts of things a day did not see, which the netDb
// files cannot name.
func isZero(_ string, n int) bool { return n == 0 }

// TestStudyDeterminism: identical options give byte-identical artifacts.
func TestStudyDeterminism(t *testing.T) {
	opts := i2pstudy.DefaultOptions()
	opts.TargetDailyPeers = 800
	a, err := i2pstudy.NewStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := i2pstudy.NewStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"figure-09", "figure-13"} {
		ra, err := a.RunExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.RunExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Text != rb.Text {
			t.Fatalf("%s: artifacts differ between identical studies", id)
		}
	}
}

// TestStudyWorkerDeterminism: the engine's worker count must never leak
// into an artifact — a Workers=1 study and a Workers=8 study render
// byte-identical figures, including the campaign-backed ones.
func TestStudyWorkerDeterminism(t *testing.T) {
	opts := i2pstudy.DefaultOptions()
	opts.TargetDailyPeers = 800
	opts.Workers = 1
	serial, err := i2pstudy.NewStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	parallel, err := i2pstudy.NewStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"figure-04", "figure-05", "table-01"} {
		ra, err := serial.RunExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := parallel.RunExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Text != rb.Text {
			t.Fatalf("%s: artifact depends on worker count", id)
		}
	}
}

// TestFullScaleSmoke builds the paper-scale network (guarded by -short).
func TestFullScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale network build skipped in -short mode")
	}
	start := time.Now()
	network, err := sim.New(sim.Config{Seed: 1, Days: 90, TargetDailyPeers: 30500})
	if err != nil {
		t.Fatal(err)
	}
	active := len(network.ActivePeers(45))
	if active < 24000 || active > 37000 {
		t.Fatalf("full-scale day-45 actives = %d, want ~30.5K", active)
	}
	o := network.NewObserver(sim.ObserverConfig{Floodfill: false, SharedKBps: sim.MaxSharedKBps, Seed: 3})
	seen := len(o.ObserveDay(45))
	if seen < 12000 || seen > 20000 {
		t.Fatalf("full-scale single-router view = %d, want ~15-16K (paper Figure 2)", seen)
	}
	t.Logf("full-scale build+observe took %s: %d actives, %d observed", time.Since(start).Round(time.Millisecond), active, seen)
}
