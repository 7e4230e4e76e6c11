// Command e2ebench is dynamicmr's end-to-end benchmark. It runs one of
// three seeded closed-loop workloads in-process against the library
// defaults (baseline engine, full input path, inline scans), checks
// every result, and prints each end-to-end metric by name and unit; the
// last line of standard output is one JSON object. With -trace 1 it
// instead reports per-layer metrics: spans around its own calls into
// each module, exact work counts, runtime/metrics GC figures, and a CPU
// profile attributed to modules.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload mixed --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"dynamicmr"
	"dynamicmr/internal/dataset"
)

// runner is one workload. An episode builds a fresh cluster (timed as
// set-up) and runs the workload's fixed op sequence on it; it returns
// the cluster still open (also on error, when it got that far), so the
// caller can sample the heap it retains before closing it.
type runner interface {
	describe() string
	setup(b *bench) (*dynamicmr.Cluster, []*dataset.Dataset, error)
	episode(b *bench) (*episode, *dynamicmr.Cluster, error)
}

var workloads = map[string]func(seed int64) runner{
	"mixed":      func(seed int64) runner { return &mixed{seed: seed} },
	"serve-loop": func(seed int64) runner { return &serveLoop{seed: seed} },
	"adhoc-scan": func(seed int64) runner { return newAdhocScan(seed) },
}

// Besides each episode's own set-up, a run times extra set-ups after
// every episode, until setupSlice seconds of them (at most
// setupsPerSlice), so that the samples spread over the whole run, and at
// least minSetups in all. setup_s is their median.
const (
	minSetups      = 5
	setupSlice     = 0.02 // seconds
	setupsPerSlice = 25
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mixed, serve-loop or adhoc-scan")
	seed := fs.Int64("seed", 1, "workload seed: drives the dataset seeds, the ad-hoc predicates and the query order")
	seconds := fs.Float64("seconds", 20, "host seconds to measure (whole episodes; at least one)")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for the spans and CPU profile of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newRunner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "e2ebench: want -workload mixed|serve-loop|adhoc-scan, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	// One P: the engine and the inline scans run on one goroutine, so a
	// second P only runs GC alongside them, and a run on one P can move
	// off a contended CPU. In interleaved runs on a shared 2-vCPU VM,
	// GOMAXPROCS=1 roughly halved the run-to-run spread of ops_per_s
	// and query_ms.* on every workload, at 5-25% lower throughput.
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(stdout, "e2ebench: workload %s, seed %d, %gs, trace %d; GOMAXPROCS %d, NumCPU %d, %s\n",
		*name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(stdout, "input: %s\n", newRunner(*seed).describe())

	var res result
	var err error
	if *traced == 0 {
		res, err = endToEnd(stdout, newRunner, *seed, *seconds)
	} else {
		res, err = perLayer(stdout, newRunner, *name, *seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	return 0
}

// measure runs whole episodes for about seconds — at least one, and no
// further episode once the last one's duration would overrun by more
// than half — with extra set-ups timed after each. A GC before each
// episode and set-up starts it from a collected heap. Traced runs
// profile each episode and add up its runtime/metrics counts; the
// forced GCs and the extra set-ups stay outside both.
func measure(r runner, seconds float64, tr *tracer) (*bench, error) {
	b := newBench(tr)
	begin := time.Now()
	var last float64
	for len(b.episodes) == 0 || time.Since(begin).Seconds()+last/2 < seconds {
		runtime.GC()
		t0 := time.Now()
		ep, c, err := b.traceEpisode(r)
		if c != nil {
			if err == nil {
				b.settle(ep)
			}
			c.Close()
		}
		if err != nil {
			return nil, err
		}
		last = time.Since(t0).Seconds()
		b.episodes = append(b.episodes, ep)
		if err := timeSetups(b, r, setupsPerSlice, setupSlice); err != nil {
			return nil, err
		}
	}
	return b, timeSetups(b, r, minSetups-len(b.setupS), math.Inf(1))
}

// traceEpisode runs one episode, under the CPU profiler and between two
// runtime/metrics readings when the run is traced.
func (b *bench) traceEpisode(r runner) (*episode, *dynamicmr.Cluster, error) {
	if b.tr == nil {
		return r.episode(b)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	before := readRuntime()
	ep, c, err := r.episode(b)
	b.runtime = b.runtime.add(readRuntime().since(before))
	pprof.StopCPUProfile()
	b.profiles = append(b.profiles, prof.Bytes())
	return ep, c, err
}

// timeSetups times up to n extra set-ups, each after a GC, stopping
// once they add up to budget seconds.
func timeSetups(b *bench, r runner, n int, budget float64) error {
	var spent float64
	for i := 0; i < n && spent < budget; i++ {
		runtime.GC()
		c, _, err := r.setup(b)
		if err != nil {
			return err
		}
		c.Close()
		spent += b.setupS[len(b.setupS)-1]
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// determinism checks that every episode reproduced episode 0's digest;
// it applies to workloads whose episodes repeat the same inputs.
func determinism(eps []*episode) error {
	d0 := eps[0].digest()
	for i, ep := range eps[1:] {
		if d := ep.digest(); d != d0 {
			return fmt.Errorf("episode %d digest %016x differs from episode 0's %016x", i+1, d, d0)
		}
	}
	return nil
}

// repeatShare is the fraction of ops whose (table, predicate,
// projection, k) matches an earlier op of the run.
func repeatShare(ops []op) float64 {
	seen := map[string]bool{}
	rep := 0
	for _, o := range ops {
		if seen[o.key] {
			rep++
		}
		seen[o.key] = true
	}
	return float64(rep) / float64(len(ops))
}

// summary is what both kinds of run report about correctness.
func summary(w io.Writer, b *bench, r runner) (correct bool) {
	var detErr error
	if _, fresh := r.(*adhocScan); !fresh {
		detErr = determinism(b.episodes)
	}
	failed := b.failed()
	fmt.Fprintf(w, "episodes %d, ops %d, digest %016x and repeat share %.4f (episode 0)\n",
		len(b.episodes), len(b.ops), b.episodes[0].digest(), repeatShare(b.episodes[0].ops))
	fmt.Fprintf(w, "ops/s per episode:")
	for _, e := range b.episodes {
		fmt.Fprintf(w, " %.4g", float64(len(e.ops))/e.hostS)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fail_ratio %.4g - (%d of %d ops)\n", float64(failed)/float64(len(b.ops)), failed, len(b.ops))
	for _, e := range b.firstErrors(5) {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	if detErr != nil {
		fmt.Fprintf(w, "  determinism: %v\n", detErr)
	}
	return failed == 0 && detErr == nil
}

// endToEnd is the untraced run.
func endToEnd(w io.Writer, newRunner func(int64) runner, seed int64, seconds float64) (result, error) {
	r := newRunner(seed)
	b, err := measure(r, seconds, nil)
	if err != nil {
		return result{}, err
	}
	correct := summary(w, b, r)
	var lat []float64
	for _, o := range b.ops {
		if o.err == nil {
			lat = append(lat, o.hostMS)
		}
	}
	v := b.episodes[0].virtual()
	m := map[string]metric{
		"setup_s":              {median(b.setupS), "s"},
		"ops_per_s":            {opsPerS(b.episodes), "1/s"},
		"query_ms.p50":         {quantile(lat, 0.5), "ms"},
		"query_ms.p90":         {quantile(lat, 0.9), "ms"},
		"peak_heap_mb":         {peakHeapMB(b.episodes), "MB"},
		"vresponse_s.p50":      {v.responseP50S, "virtual-s"},
		"vjobs_per_h.sampling": {v.samplingPerH, "jobs/virtual-h"},
		"vjobs_per_h.all":      {v.allPerH, "jobs/virtual-h"},
	}
	printMetrics(w, m)
	// Metrics that apply to one workload only are printed, not gated.
	above := 0
	for _, l := range lat {
		if l > m["query_ms.p90"].Value {
			above++
		}
	}
	fmt.Fprintf(w, "query_ms samples %d, %d above p90\n", len(lat), above)
	if len(b.flushS) > 0 {
		fmt.Fprintf(w, "flush_s %.6g s (median of %d)\n", median(b.flushS), len(b.flushS))
	}
	if v.nonSamplingPerH > 0 {
		fmt.Fprintf(w, "vjobs_per_h.nonsampling %.6g jobs/virtual-h\n", v.nonSamplingPerH)
	}
	return result{Correct: correct, Attempted: len(b.ops), Failed: b.failed(), Metrics: m}, nil
}

// perLayer is the traced run: an untraced half for the overhead
// baseline, then a traced half that yields the per-layer metrics.
func perLayer(w io.Writer, newRunner func(int64) runner, name string, seed int64, seconds float64, out string) (result, error) {
	plain, err := measure(newRunner(seed), seconds/2, nil)
	if err != nil {
		return result{}, err
	}
	r := newRunner(seed)
	tr := newTracer()
	b, err := measure(r, seconds/2, tr)
	if err != nil {
		return result{}, err
	}
	gc := b.runtime
	correct := summary(w, b, r)
	if plain.episodes[0].digest() != b.episodes[0].digest() {
		fmt.Fprintf(w, "  determinism: traced digest differs from untraced\n")
		correct = false
	}
	shares, err := cpuShares(b.profiles)
	if err != nil {
		return result{}, err
	}

	ops := float64(len(b.ops))
	n := b.counts
	perOp := func(x float64) float64 { return x / ops }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	driveMS := tr.total("sim.drive", time.Millisecond)
	m := map[string]metric{
		"dataset.load_ms":                       {median(tr.durations("dataset.load", time.Millisecond)), "ms"},
		"hive.parse_us":                         {median(tr.durations("hive.parse", time.Microsecond)), "us"},
		"hive.submit_us":                        {median(tr.durations("hive.submit", time.Microsecond)), "us"},
		"sim.drive_ms":                          {perOp(driveMS), "ms"},
		"obs.publish_ms.q1":                     {mean(b.publishMS[0]), "ms"},
		"obs.publish_ms.q4":                     {mean(b.publishMS[3]), "ms"},
		"diag.diagnose_ms":                      {median(tr.durations("diag.diagnose", time.Millisecond)), "ms"},
		"runarchive.build_ms":                   {median(tr.durations("runarchive.build", time.Millisecond)), "ms"},
		"runarchive.write_ms":                   {median(tr.durations("runarchive.write", time.Millisecond)), "ms"},
		"sim.events_per_op":                     {perOp(float64(n.events)), "count"},
		"sim.us_per_event":                      {ratio(driveMS*1000, float64(n.events)), "us"},
		"mapreduce.attempts_per_op":             {perOp(float64(n.mapStarted)), "count"},
		"mapreduce.useful_attempt_ratio":        {ratio(float64(n.mapFinished), float64(n.mapStarted)), "ratio"},
		"mapreduce.records_read_per_op":         {perOp(float64(n.recordsRead)), "count"},
		"mapreduce.map_output_records_per_op":   {perOp(float64(n.mapOutput)), "count"},
		"mapreduce.reduce_input_records_per_op": {perOp(float64(n.reduceInput)), "count"},
		"sampling.rows_returned_ratio":          {ratio(float64(n.rowsReturned), float64(n.mapOutput)), "ratio"},
		"core.evaluations_per_query":            {ratio(float64(n.evaluations), float64(n.samplingQueries)), "count"},
		"trace.spans_per_op":                    {perOp(float64(n.tracerSpans)), "count"},
		"runarchive.bytes":                      {median(n.archiveBytes), "B"},
		"gc.alloc_mb_per_op":                    {perOp(gc.allocBytes / 1e6), "MB"},
		"gc.allocs_per_op":                      {perOp(gc.allocObjects), "count"},
		"gc.cycles_per_op":                      {perOp(gc.cycles), "count"},
		"gc.cpu_share":                          {gc.cpuShare(), "ratio"},
		"gc.pause_ms.p99":                       {gc.pauseP99MS(), "ms"},
		"tracing.overhead_ops_per_s": {
			opsPerS(b.episodes) - opsPerS(plain.episodes), "1/s"},
	}
	for mod, s := range shares {
		m["cpu_share."+mod] = metric{s, "ratio"}
	}
	printMetrics(w, m)

	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", name, seed))
	if err := tr.writeJSONL(base + ".spans.jsonl"); err != nil {
		return result{}, err
	}
	for i, prof := range b.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i), prof, 0o644); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(w, "spans and per-episode CPU profiles written to %s.{spans.jsonl,cpu<episode>.pprof}\n", base)
	return result{Correct: correct, Attempted: len(b.ops), Failed: b.failed(), Metrics: m}, nil
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
