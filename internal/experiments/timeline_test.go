package experiments

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"dynamicmr/internal/core"
	"dynamicmr/internal/data"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/tsdb"
)

// testRig builds a single-user rig with no tracing.
func testRig(t *testing.T) *rig {
	t.Helper()
	sh := QuickOptions().newSweepShared()
	t.Cleanup(sh.close)
	return newRig(nil, false, sh, false)
}

func TestMeasuredWindowExcludesWarmup(t *testing.T) {
	r := testRig(t)
	full := startMeasuredWindow(r, 0)
	late := startMeasuredWindow(r, 50)
	// Occupy one core of node 0 from t=0 to t=20 (per-task 1-core cap).
	r.cl.Node(0).CPU.Submit(20, nil)
	r.eng.RunUntil(100)
	if p, _ := full.Advance(); p.CPUUtilPct <= 0 {
		t.Fatalf("full-window cpu = %v", p.CPUUtilPct)
	}
	if p, _ := late.Advance(); p.CPUUtilPct != 0 {
		t.Fatalf("post-warmup cpu = %v, want 0 (load ended before t=50)", p.CPUUtilPct)
	}
}

// TestMeasuredWindowWarmupBoundary pins the window edges: load that
// ends exactly at the warm-up boundary is excluded, and load straddling
// it counts only for its post-boundary part.
func TestMeasuredWindowWarmupBoundary(t *testing.T) {
	r := testRig(t)
	w := startMeasuredWindow(r, 10)
	r.cl.Node(0).CPU.Submit(10, nil) // one core busy t=0..10
	r.eng.RunUntil(30)
	if p, _ := w.Advance(); p.CPUUtilPct != 0 {
		t.Fatalf("cpu after a load ending at the boundary = %v, want 0", p.CPUUtilPct)
	}

	r = testRig(t)
	w = startMeasuredWindow(r, 10)
	r.cl.Node(0).CPU.Submit(20, nil) // one core busy t=0..20
	r.eng.RunUntil(30)
	// 10 core-seconds inside the 20 s window, over all cores.
	p, _ := w.Advance()
	want := 100 * 10 / (r.cl.CPUCapacity() * 20)
	if p.Time != 30 || math.Abs(p.CPUUtilPct-want) > 1e-9 {
		t.Fatalf("straddling load: %+v, want cpu %v at t=30", p, want)
	}
}

func TestLocalityPct(t *testing.T) {
	r := testRig(t)
	schema := data.NewSchema("V")
	var srcs []data.Source
	for b := 0; b < 40; b++ {
		rr := make([]data.Record, 100)
		for i := range rr {
			rr[i] = data.NewRecord(schema, []data.Value{data.Int(int64(i))})
		}
		srcs = append(srcs, data.NewSliceSource(schema, rr))
	}
	f, err := r.fs.Create("in", srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	job := r.jt.Submit(mapreduce.JobSpec{NewMapper: func(*mapreduce.JobConf) mapreduce.Mapper {
		return mapreduce.MapperFunc(func(data.Record, *mapreduce.Collector) error { return nil })
	}}, mapreduce.SplitsForFile(f))
	if localityPct(r.jt) != 0 {
		t.Fatal("locality non-zero before any maps")
	}
	mapreduce.RunUntilDone(r.eng, job, 1e6)
	if got := localityPct(r.jt); got < 50 || got > 100 {
		t.Fatalf("locality = %v%%", got)
	}
}

// TestSinksDoNotChangeFigure7 is the observer-neutrality contract: the
// quick figure-7 LA cell at sampling fraction 0.8, run with every sink
// option set (timelines, reports at an off-grid sampler cadence,
// diagnosis, archives, alert rules and dumps), prints exactly the
// tables of the plain run. Sinks may cost wall-clock time, never
// virtual time.
func TestSinksDoNotChangeFigure7(t *testing.T) {
	render := func(opt Options) string {
		opt.Policies = []string{core.PolicyLA}
		opt.SamplingFractions = []float64{0.8}
		opt.Parallelism = 1
		res, err := Figure7(opt)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, tb := range res.Tables() {
			out += tb.Render()
		}
		return out
	}
	plain := render(QuickOptions())

	opt := QuickOptions()
	dir := t.TempDir()
	for _, sub := range []string{"trace", "report", "diag", "archive", "alerts"} {
		if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	opt.TraceDir = filepath.Join(dir, "trace")
	opt.ReportDir = filepath.Join(dir, "report")
	opt.DiagDir = filepath.Join(dir, "diag")
	opt.ArchiveDir = filepath.Join(dir, "archive")
	opt.AlertsDir = filepath.Join(dir, "alerts")
	opt.AlertRules = []tsdb.Rule{
		{Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 0.001},
		{Name: "cpu-high", Kind: tsdb.KindThreshold, Series: "cluster.cpu_util_pct", Value: 50},
	}
	opt.SampleIntervalS = 7
	if got := render(opt); got != plain {
		t.Fatalf("sinks changed the figure-7 tables:\n--- plain ---\n%s\n--- every sink ---\n%s", plain, got)
	}
	if _, err := os.Stat(filepath.Join(opt.TraceDir, "figure7_frac0.8_LA.csv")); err != nil {
		t.Fatalf("timeline CSV missing: %v", err)
	}
}
