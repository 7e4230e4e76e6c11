package trace

import (
	"fmt"
	"io"
)

// WriteTimelineCSV writes the tracer's utilization timeline as CSV with
// the paper's §V-D columns, one row per poll interval. A nil tracer
// writes just the header.
func (t *Tracer) WriteTimelineCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "time_s,cpu_util_pct,disk_read_kbs,slot_occupancy_pct\n"); err != nil {
		return err
	}
	for _, m := range t.MetricSamples() {
		if _, err := fmt.Fprintf(w, "%g,%g,%g,%g\n",
			m.Time, m.CPUUtilPct, m.DiskReadKBs, m.SlotOccupancyPct); err != nil {
			return err
		}
	}
	return nil
}

// WritePolicyCSV writes the policy decision audit log as CSV, one row
// per Input Provider evaluation.
func (t *Tracer) WritePolicyCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"time_s,job,policy,verdict,added,grab_limit,scheduled_maps,completed_maps,"+
			"pending_maps,running_maps,map_input_records,map_output_records,"+
			"total_slots,free_slots,queued_tasks,work_threshold_pct,progress_pct\n"); err != nil {
		return err
	}
	for _, d := range t.PolicyDecisions() {
		if _, err := fmt.Fprintf(w, "%g,%d,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g\n",
			d.Time, d.JobID, d.Policy, d.Verdict, d.Added, d.GrabLimit,
			d.ScheduledMaps, d.CompletedMaps, d.PendingMaps, d.RunningMaps,
			d.MapInputRecords, d.MapOutputRecords,
			d.TotalSlots, d.FreeSlots, d.QueuedTasks,
			d.WorkThresholdPct, d.ProgressPct); err != nil {
			return err
		}
	}
	return nil
}
