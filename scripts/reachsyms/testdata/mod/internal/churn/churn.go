// Package churn owns the longevity model: its class rows spell the span
// law and the presence chain, and rule one-churn-model fires on none of
// them here.
package churn

// ClassParams is one longevity class's row.
type ClassParams struct {
	Frac                float64
	SpanFloor, SpanMean float64
	OnOn, OffOn         float64
}

// Presence is the class's stationary presence.
func (c ClassParams) Presence() float64 { return c.OffOn / (1 - c.OnOn + c.OffOn) }
