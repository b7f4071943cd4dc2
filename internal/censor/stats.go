package censor

import (
	"github.com/i2pstudy/i2pstudy/internal/cache"
	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// The censor's cache.DayMemo rings in the i2p_cache_* metric families.
var (
	obsIDsRing      = cache.NewRing("censor_obs_ids")
	dayIDsRing      = cache.NewRing("censor_day_ids")
	victimNetDbRing = cache.NewRing("victim_netdb")
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
