package checkpoint

import "github.com/i2pstudy/i2pstudy/internal/obs"

// checkpointStats holds the spill/resume instrument handles.
type checkpointStats struct {
	rowsWritten  *obs.Counter // i2p_checkpoint_rows_written_total
	rowsResumed  *obs.Counter // i2p_checkpoint_rows_resumed_total
	bytesSpilled *obs.Counter // i2p_checkpoint_bytes_spilled_total
}

var stats = obs.NewLazy(func(r *obs.Registry) checkpointStats {
	return checkpointStats{
		rowsWritten: r.Counter("i2p_checkpoint_rows_written_total",
			"Completed units (experiments, campaign days) committed to a checkpoint directory."),
		rowsResumed: r.Counter("i2p_checkpoint_rows_resumed_total",
			"Units loaded from a checkpoint directory instead of recomputed."),
		bytesSpilled: r.Counter("i2p_checkpoint_bytes_spilled_total",
			"Bytes of unit payload spilled to checkpoint directories."),
	}
})
