package taglessdram

import (
	"encoding/json"
	"fmt"
	"io"

	"taglessdram/internal/obs"
)

// EpochDropWarning renders a one-line operator warning when a run's
// epoch ring overflowed (Result.EpochsDropped > 0): the oldest epochs
// were overwritten, so the exported time series is truncated at its
// start. Returns "" when nothing was dropped. The CLIs print it to
// stderr so structured stdout streams stay byte-identical.
func EpochDropWarning(r *Result) string {
	if r == nil || r.EpochsDropped == 0 {
		return ""
	}
	return fmt.Sprintf("%s/%v: epoch ring overflowed: dropped the oldest %d of %d epochs; raise -epoch-capacity (Options.EpochCapacity) or -epoch-refs to keep the full series",
		r.Workload, r.Design, r.EpochsDropped, r.EpochsDropped+len(r.Epochs))
}

// Epoch is one epoch of a run's time series: counter deltas (references,
// instructions, cycles, device bytes, controller activity) and
// instantaneous gauges (free-pool depth) over one EpochRefs-long window
// of the measured phase. Result.Epochs holds them oldest first.
type Epoch = obs.Epoch

// The structured-metrics stream is JSON lines: one "run" line per result
// carrying the full flattened metric map, followed by one "epoch"
// line per captured epoch. Field names and the line types are a stable,
// documented schema (see README "Observability"); keys within a run
// line's metrics object are sorted, so the bytes are deterministic for a
// deterministic simulation.
type metricsRunLine struct {
	Type     string             `json:"type"` // "run"
	Workload string             `json:"workload"`
	Design   string             `json:"design"`
	Epochs   int                `json:"epochs"`
	Dropped  int                `json:"epochs_dropped,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
}

type metricsEpochLine struct {
	Type     string `json:"type"` // "epoch"
	Workload string `json:"workload"`
	Design   string `json:"design"`
	Epoch
}

// WriteMetricsJSON streams results as JSON lines: for each result a
// "run" line with the complete Result.Metrics map, then one "epoch"
// line per entry of Result.Epochs. Output depends only on the results
// and their order, so feeding it submission-ordered sweep results (see
// Options.MetricsSink) yields byte-identical files at any Workers width.
func WriteMetricsJSON(w io.Writer, results ...*Result) error {
	enc := json.NewEncoder(w)
	for _, r := range results {
		line := metricsRunLine{
			Type:     "run",
			Workload: r.Workload,
			Design:   r.Design.String(),
			Epochs:   len(r.Epochs),
			Dropped:  r.EpochsDropped,
			Metrics:  r.Metrics(),
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		for _, e := range r.Epochs {
			el := metricsEpochLine{
				Type:     "epoch",
				Workload: r.Workload,
				Design:   r.Design.String(),
				Epoch:    e,
			}
			if err := enc.Encode(el); err != nil {
				return err
			}
		}
	}
	return nil
}
