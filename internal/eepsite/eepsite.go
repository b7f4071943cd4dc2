// Package eepsite models eepsite hosting and HTTP-over-I2P page fetches
// under address-based blocking — the paper's usability experiment
// (Section 6.2.3, Figure 14).
//
// The experimental setup mirrors the paper's: the victim sits behind a
// null-routing firewall that silently drops packets to blacklisted peer
// addresses. Reaching an eepsite needs four tunnels (Figure 1), but only
// the victim's *direct* contacts traverse the firewall: the first hop of
// its outbound tunnel and the last hop of its inbound tunnel. A build
// through a blocked contact never answers, costing a full build timeout;
// the client retries with fresh hops until the page budget is exhausted,
// at which point the fetch fails with HTTP 504 — exactly the behaviour the
// paper measured by crawling its own test eepsites.
package eepsite

import (
	"errors"
	"math/rand/v2"
	"net/http"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/tunnel"
)

// Site is one hosted eepsite. The paper used "a simple and small html
// file" to avoid wasting network bandwidth.
type Site struct {
	// Dest is the destination hash (what .i2p names resolve to).
	Dest netdb.Hash
	// PageBytes is the page size.
	PageBytes int
}

// NewSite creates a small test eepsite.
func NewSite(dest netdb.Hash) *Site {
	return &Site{Dest: dest, PageBytes: 4096}
}

// The client's timing constants: the paper's experiment.
const (
	// baseLoadTime is the unblocked page load time; the paper measured
	// 3.4 seconds on its test eepsites.
	baseLoadTime = 3400 * time.Millisecond
	// buildTimeout is how long a tunnel build through a null-routed hop
	// takes to give up (the Java router's build timeout is ~10 s).
	buildTimeout = 10 * time.Second
	// pageBudget is the total time before the HTTP proxy returns 504.
	pageBudget = 60 * time.Second
	// hopsPerTunnel is the client tunnel length.
	hopsPerTunnel = tunnel.DefaultHops
)

// FetchResult is one page-load outcome.
type FetchResult struct {
	// StatusCode is 200 on success, 504 on timeout.
	StatusCode int
	// LoadTime is the observed page load time (capped at the 60 s page
	// budget for timeouts).
	LoadTime time.Duration
	// BuildAttempts counts tunnel-pair construction attempts.
	BuildAttempts int
}

// Timeout reports whether the fetch timed out.
func (r FetchResult) Timeout() bool { return r.StatusCode == http.StatusGatewayTimeout }

// ErrNoCandidates is returned when the client's netDb has too few eligible
// peers to even attempt a tunnel.
var ErrNoCandidates = errors.New("eepsite: not enough tunnel candidates in netDb")

// Client fetches eepsites through tunnels built from its local netDb view.
type Client struct {
	// Pool is the client's netDb prepared for hop selection: the
	// RouterInfos it can pick tunnel hops from.
	Pool *tunnel.HopPool
	// Blocked reports whether a direct connection from the client to the
	// peer is null-routed. nil means nothing is blocked.
	Blocked func(h netdb.Hash) bool
}

// NewClient builds a client over a netDb view, preparing its hop pool
// under the default selection policy.
func NewClient(candidates []*netdb.RouterInfo, blocked func(netdb.Hash) bool) *Client {
	return NewPoolClient(tunnel.DefaultSelector().Prepare(candidates), blocked)
}

// NewPoolClient builds a client over an already prepared hop pool, so
// clients that differ only in what is blocked share one.
func NewPoolClient(pool *tunnel.HopPool, blocked func(netdb.Hash) bool) *Client {
	return &Client{Pool: pool, Blocked: blocked}
}

// blockedHop reports whether h is unreachable from the client.
func (c *Client) blockedHop(h netdb.Hash) bool {
	return c.Blocked != nil && c.Blocked(h)
}

// Fetch performs one page load of site. The rng drives hop selection.
func (c *Client) Fetch(site *Site, rng *rand.Rand) (FetchResult, error) {
	elapsed := time.Duration(0)
	attempts := 0
	for {
		attempts++
		// One attempt: build an outbound and an inbound tunnel. The
		// victim's direct contacts are the outbound gateway-side first
		// hop and the inbound delivery hop.
		hops, err := c.Pool.Select(2*hopsPerTunnel, nil, rng)
		if err != nil {
			return FetchResult{}, ErrNoCandidates
		}
		out := hops[:hopsPerTunnel]
		in := hops[hopsPerTunnel:]
		directOut := out[0]       // first hop of the outbound tunnel
		directIn := in[len(in)-1] // last hop of the inbound tunnel
		ok := !c.blockedHop(directOut) && !c.blockedHop(directIn)
		if ok {
			// Successful build: hop RTTs plus the base transfer time.
			elapsed += time.Duration(2*hopsPerTunnel) * tunnel.DefaultHopRTT
			load := elapsed + baseLoadTime
			if load > pageBudget {
				return FetchResult{StatusCode: http.StatusGatewayTimeout, LoadTime: pageBudget, BuildAttempts: attempts}, nil
			}
			return FetchResult{StatusCode: http.StatusOK, LoadTime: load, BuildAttempts: attempts}, nil
		}
		// The build message to a null-routed contact is silently dropped;
		// the client waits out the build timeout and retries.
		elapsed += buildTimeout
		if elapsed+baseLoadTime > pageBudget {
			return FetchResult{StatusCode: http.StatusGatewayTimeout, LoadTime: pageBudget, BuildAttempts: attempts}, nil
		}
	}
}

// CrawlStats aggregates repeated fetches at one blocking level — one x
// position of Figure 14.
type CrawlStats struct {
	BlockingRate float64
	Fetches      int
	Timeouts     int
	// MeanLoad averages load time over all fetches (timeouts count at the
	// page budget, as the paper's crawler experienced).
	MeanLoad time.Duration
}

// TimeoutPct returns the percentage of fetches that returned 504.
func (s CrawlStats) TimeoutPct() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return 100 * float64(s.Timeouts) / float64(s.Fetches)
}

// Crawl fetches the site `fetches` times and aggregates.
func (c *Client) Crawl(site *Site, fetches int, rng *rand.Rand) (CrawlStats, error) {
	st := CrawlStats{Fetches: fetches}
	var total time.Duration
	for i := 0; i < fetches; i++ {
		res, err := c.Fetch(site, rng)
		if err != nil {
			return st, err
		}
		if res.Timeout() {
			st.Timeouts++
		}
		total += res.LoadTime
	}
	if fetches > 0 {
		st.MeanLoad = total / time.Duration(fetches)
	}
	return st, nil
}
