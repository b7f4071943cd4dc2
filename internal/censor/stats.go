package censor

import (
	"github.com/i2pstudy/i2pstudy/internal/cache"
	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// Ring names for the censor's cache.DayMemo instances in the
// i2p_cache_* metric families.
const (
	obsIDsRing           = "censor_obs_ids"
	dayIDsRing           = "censor_day_ids"
	victimAddrSetRing    = "victim_addrset"
	victimKnownPeersRing = "victim_known_peers"
)

// poolStats holds the WindowCounter pool's instrument handles: gets
// (every NewWindowCounter), news (pool misses that allocated a fresh
// table), puts (ReleaseWindowCounter returns). news/gets is the pool
// miss rate; gets - puts is the count of rows that never released.
type poolStats struct {
	gets, news, put *obs.Counter
}

var poolObs = obs.NewLazy(func(r *obs.Registry) poolStats {
	ops := r.CounterVec("i2p_windowcounter_pool_total",
		"WindowCounter pool traffic: get (acquisitions), new (pool-miss allocations), put (releases).", "op")
	return poolStats{gets: ops.With("get"), news: ops.With("new"), put: ops.With("put")}
})

func init() {
	cache.PreRegisterRing(obsIDsRing)
	cache.PreRegisterRing(dayIDsRing)
	cache.PreRegisterRing(victimAddrSetRing)
	cache.PreRegisterRing(victimKnownPeersRing)
}
