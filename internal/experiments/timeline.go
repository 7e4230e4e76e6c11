package experiments

import (
	"os"
	"path/filepath"

	"dynamicmr/internal/mapreduce"
)

// startMeasuredWindow returns the cursor a workload cell reads its
// §V-D utilization averages from; call it right before workload.Run
// with the same warm-up. An event at the end of warm-up advances the
// cursor once to drop the warm-up interval, so the next Advance, after
// the run, averages exactly [start+warmupS, end of run] with no
// periodic poll. Integral reads are pure, so the window never perturbs
// the run.
func startMeasuredWindow(r *rig, warmupS float64) *mapreduce.UtilizationCursor {
	c := r.jt.NewUtilizationCursor()
	r.eng.After(warmupS, func() { c.Advance() })
	return c
}

// writeCellTimeline exports one workload cell's 30-second utilization
// timeline (the tracer's telemetry poll) as CSV into opt.TraceDir
// (no-op when unset). The file carries the same columns the paper's
// §V-D monitoring reports.
func writeCellTimeline(opt Options, name string, r *rig) error {
	if opt.TraceDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(opt.TraceDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := r.jt.Tracer().WriteTimelineCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
