package mapreduce

import "dynamicmr/internal/trace"

// UtilizationPoint is one interval-averaged utilization reading in the
// units the paper reports (§V-D): CPU percent of total core capacity,
// per-disk KB/s, and percent of map slots occupied.
type UtilizationPoint struct {
	// Time is the interval's end (virtual seconds).
	Time             float64
	CPUUtilPct       float64
	DiskReadKBs      float64
	SlotOccupancyPct float64
}

// UtilizationCursor turns the cluster's monotonic service integrals
// into interval averages: each Advance reports the mean utilization
// since the previous Advance (or since construction). It is the single
// implementation behind both the tracer's telemetry poll and the
// experiments' measured-window averages, so the two can never drift.
// The integral reads are pure, so a cursor never perturbs the run it
// observes.
type UtilizationCursor struct {
	jt                                 *JobTracker
	lastT, lastCPU, lastDisk, lastSlot float64
}

// NewUtilizationCursor starts a cursor with its baseline at now.
func (jt *JobTracker) NewUtilizationCursor() *UtilizationCursor {
	return &UtilizationCursor{
		jt:       jt,
		lastT:    jt.eng.Now(),
		lastCPU:  jt.cluster.CPUUsedIntegral(),
		lastDisk: jt.cluster.DiskUsedIntegral(),
		lastSlot: jt.MapSlotOccupancyIntegral(),
	}
}

// Advance reads the integrals and returns the interval average since
// the previous call; ok is false when no virtual time has passed.
func (c *UtilizationCursor) Advance() (p UtilizationPoint, ok bool) {
	jt := c.jt
	now := jt.eng.Now()
	dt := now - c.lastT
	cpu := jt.cluster.CPUUsedIntegral()
	disk := jt.cluster.DiskUsedIntegral()
	slot := jt.MapSlotOccupancyIntegral()
	if dt > 0 {
		ok = true
		p = UtilizationPoint{
			Time:             now,
			CPUUtilPct:       100 * (cpu - c.lastCPU) / (jt.cluster.CPUCapacity() * dt),
			DiskReadKBs:      (disk - c.lastDisk) / dt / float64(jt.cluster.Cfg.TotalDisks()) / 1024,
			SlotOccupancyPct: 100 * (slot - c.lastSlot) / (float64(jt.cluster.Cfg.TotalMapSlots()) * dt),
		}
	}
	c.lastT, c.lastCPU, c.lastDisk, c.lastSlot = now, cpu, disk, slot
	return p, ok
}

// startTelemetry launches the tracer's periodic utilization poll; it
// runs alongside the heartbeats for the life of the engine and feeds
// the tracer's timeline (Tracer.WriteTimelineCSV).
func (jt *JobTracker) startTelemetry() {
	if !jt.tracer.Enabled() {
		return
	}
	interval := jt.cfg.Trace.SampleInterval()
	cur := jt.NewUtilizationCursor()
	var tick func()
	tick = func() {
		if p, ok := cur.Advance(); ok {
			jt.tracer.RecordMetricSample(trace.MetricSample{
				Time:             p.Time,
				CPUUtilPct:       p.CPUUtilPct,
				DiskReadKBs:      p.DiskReadKBs,
				SlotOccupancyPct: p.SlotOccupancyPct,
			})
		}
		jt.eng.After(interval, tick)
	}
	jt.eng.After(interval, tick)
}
