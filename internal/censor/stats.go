package censor

import "github.com/i2pstudy/i2pstudy/internal/cache"

// The censor's cache.DayMemo rings in the i2p_cache_* metric families.
var (
	obsIDsRing      = cache.NewRing("censor_obs_ids")
	dayIDsRing      = cache.NewRing("censor_day_ids")
	victimNetDbRing = cache.NewRing("victim_netdb")
)
