package mapreduce

import (
	"math"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
)

// submitScan stores a fresh file and submits a map-only scan over it
// that emits nothing.
func (r *testRig) submitScan(t *testing.T, name string, blocks, recs int) (*Job, *dfs.File) {
	t.Helper()
	f := r.makeFile(t, name, blocks, recs)
	job := r.jt.Submit(JobSpec{NewMapper: func(*JobConf) Mapper {
		return MapperFunc(func(data.Record, *Collector) error { return nil })
	}}, SplitsForFile(f))
	return job, f
}

// pollCursor advances c every interval virtual seconds up to until,
// collecting the interval readings.
func pollCursor(eng *sim.Engine, c *UtilizationCursor, interval, until float64) []UtilizationPoint {
	var out []UtilizationPoint
	var tick func()
	tick = func() {
		if p, ok := c.Advance(); ok {
			out = append(out, p)
		}
		if eng.Now()+interval <= until {
			eng.After(interval, tick)
		}
	}
	eng.After(interval, tick)
	eng.RunUntil(until)
	return out
}

func TestUtilizationCursorIdleClusterReadsZero(t *testing.T) {
	r := newRig(t, nil)
	pts := pollCursor(r.eng, r.jt.NewUtilizationCursor(), 10, 35)
	if len(pts) != 3 {
		t.Fatalf("readings = %d, want 3", len(pts))
	}
	for _, p := range pts {
		if p.CPUUtilPct != 0 || p.DiskReadKBs != 0 || p.SlotOccupancyPct != 0 {
			t.Fatalf("idle cluster reading non-zero: %+v", p)
		}
	}
}

// TestUtilizationCursorNoElapsedTime: a reading over an empty window
// reports !ok and a zero point instead of dividing by zero.
func TestUtilizationCursorNoElapsedTime(t *testing.T) {
	r := newRig(t, nil)
	r.cl.Node(0).CPU.Submit(5, nil)
	p, ok := r.jt.NewUtilizationCursor().Advance()
	if ok || p != (UtilizationPoint{}) {
		t.Fatalf("zero-width window = %+v, ok=%v", p, ok)
	}
}

func TestUtilizationCursorSeesLoad(t *testing.T) {
	r := newRig(t, nil)
	job, _ := r.submitScan(t, "in", 80, 2000)
	c := r.jt.NewUtilizationCursor()
	RunUntilDone(r.eng, job, 1e6)
	p, ok := c.Advance()
	if !ok || p.CPUUtilPct <= 0 || p.DiskReadKBs <= 0 || p.SlotOccupancyPct <= 0 {
		t.Fatalf("loaded window = %+v, ok=%v", p, ok)
	}
	if p.CPUUtilPct > 100+1e-6 || p.SlotOccupancyPct > 100+1e-6 {
		t.Fatalf("percentages out of range: %+v", p)
	}
}

func TestUtilizationCursorConcurrentJobs(t *testing.T) {
	r := newRig(t, nil)
	j1, _ := r.submitScan(t, "in1", 40, 2000)
	j2, _ := r.submitScan(t, "in2", 40, 2000)
	c := r.jt.NewUtilizationCursor()
	RunUntilDone(r.eng, j1, 1e6)
	RunUntilDone(r.eng, j2, 1e6)
	p, ok := c.Advance()
	if !ok || p.CPUUtilPct <= 0 || p.DiskReadKBs <= 0 || p.SlotOccupancyPct <= 0 {
		t.Fatalf("concurrent-job window = %+v, ok=%v", p, ok)
	}
	if p.CPUUtilPct > 100+1e-6 || p.SlotOccupancyPct > 100+1e-6 {
		t.Fatalf("percentages out of range under concurrency: %+v", p)
	}
}

// TestUtilizationCursorDiskReadMatchesBytes checks the Figure 6 disk
// series against ground truth: a job that reads exactly B bytes must
// produce interval readings integrating to B.
func TestUtilizationCursorDiskReadMatchesBytes(t *testing.T) {
	r := newRig(t, nil)
	job, f := r.submitScan(t, "in", 20, 500)
	wantBytes := float64(f.TotalBytes())
	c := r.jt.NewUtilizationCursor()
	var pts []UtilizationPoint
	var tick func()
	tick = func() {
		if p, ok := c.Advance(); ok {
			pts = append(pts, p)
		}
		if !job.Done() {
			r.eng.After(5, tick)
		}
	}
	r.eng.After(5, tick)
	RunUntilDone(r.eng, job, 1e6)
	// Run past the last boundary so the final interval lands.
	r.eng.RunUntil(r.eng.Now() + 10)

	// Integrate per-disk KB/s back to bytes.
	var readBytes, lastT float64
	for _, p := range pts {
		readBytes += p.DiskReadKBs * 1024 * (p.Time - lastT) * float64(r.cl.Cfg.TotalDisks())
		lastT = p.Time
	}
	// Reduce output writes add a little on top of the reads; the map
	// reads must be within a few percent.
	if readBytes < wantBytes*0.98 {
		t.Fatalf("sampled disk volume %.0f < actual read volume %.0f", readBytes, wantBytes)
	}
	if readBytes > wantBytes*1.25 {
		t.Fatalf("sampled disk volume %.0f far above read volume %.0f", readBytes, wantBytes)
	}
}

// TestUtilizationCursorCPUMatchesWork: a job whose map CPU work is
// known reads back as that many core-seconds over the run.
func TestUtilizationCursorCPUMatchesWork(t *testing.T) {
	r := newRig(t, nil)
	job, _ := r.submitScan(t, "in", 10, 1000)
	c := r.jt.NewUtilizationCursor()
	RunUntilDone(r.eng, job, 1e6)
	p, _ := c.Advance()
	got := p.CPUUtilPct / 100 * r.cl.CPUCapacity() * p.Time
	wantCPU := float64(10*1000) * DefaultCosts().MapCPUPerRecordS // map work
	if got < wantCPU*0.99 {                                       // float accumulation tolerance
		t.Fatalf("CPU work %v below map work %v", got, wantCPU)
	}
	// Sort/reduce overhead is small for empty map output.
	if got > wantCPU*1.5+0.1 {
		t.Fatalf("CPU work %v far above map work %v", got, wantCPU)
	}
}

// TestTelemetryDefaultIntervalThirtySeconds: the tracer's utilization
// timeline polls at the paper's 30 s cadence by default, from the
// first submission on.
func TestTelemetryDefaultIntervalThirtySeconds(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	cfg := DefaultConfig()
	cfg.Trace = trace.Config{Enabled: true}
	r := &testRig{eng: eng, cl: cl, fs: dfs.New(cl), jt: NewJobTracker(cl, cfg, nil)}
	r.submitScan(t, "in", 4, 100)
	eng.RunUntil(95)
	got := r.jt.Tracer().MetricSamples()
	if len(got) != 3 {
		t.Fatalf("samples in 95s = %d, want 3 (30s interval)", len(got))
	}
	if math.Abs(got[0].Time-30) > 1e-9 {
		t.Fatalf("first sample at %v", got[0].Time)
	}
}
