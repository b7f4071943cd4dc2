package core

// trustRow slides a trust row to a day instead of returning its horizon
// as one result.
type trustRow struct{ day int }

func (r *trustRow) advanceTo(day int) { r.day = day }
