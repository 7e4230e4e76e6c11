package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// op is the outcome of one measured operation: a query, or a finished
// job in the mixed workload.
type op struct {
	class    string  // classSampling or classNonSampling
	hostMS   float64 // host latency, submit to checked result
	vrespS   float64 // virtual response time
	vfinishS float64 // virtual finish time
	rowsHash uint64  // order-independent hash of the returned rows
	key      string  // table, predicate, projection and k: equal keys repeat work
	counted  bool    // inside the workload's virtual measure window
	err      error   // failed, missed the deadline or failed the check
}

const (
	classSampling    = "sampling"
	classNonSampling = "nonsampling"
)

// episode is one closed loop from a fresh cluster: set-up, ops, and (in
// serve-loop) the shutdown flush. Its virtual outcome is a function of
// the seed alone.
type episode struct {
	ops      []op
	measureS float64 // virtual window the per-class throughput divides by
	hostS    float64 // host seconds spent in the op loop
	peakHeap uint64  // highest live heap sampled after an op
}

// opsPerS is the median over episodes of ops per host second in the op
// loops, so one disturbed episode does not move it.
func opsPerS(eps []*episode) float64 {
	var xs []float64
	for _, e := range eps {
		xs = append(xs, float64(len(e.ops))/e.hostS)
	}
	return median(xs)
}

// digest folds the episode's simulated results — every op's virtual
// times and row hash, in op order — into one number.
func (e *episode) digest() uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, o := range e.ops {
		buf = append(buf[:0], o.class...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.vrespS))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.vfinishS))
		buf = binary.LittleEndian.AppendUint64(buf, o.rowsHash)
		h.Write(buf)
	}
	return h.Sum64()
}

// virtualMetrics are exact functions of the seed. The response-time
// median is over sampling queries, the paper's Figure 5 metric.
type virtualMetrics struct {
	responseP50S    float64
	samplingPerH    float64
	allPerH         float64
	nonSamplingPerH float64
}

func (e *episode) virtual() virtualMetrics {
	var resp []float64
	var samp, all int
	for _, o := range e.ops {
		if !o.counted || o.err != nil {
			continue
		}
		all++
		if o.class == classSampling {
			samp++
			resp = append(resp, o.vrespS)
		}
	}
	v := virtualMetrics{responseP50S: quantile(resp, 0.5)}
	if e.measureS > 0 {
		v.samplingPerH = float64(samp) * 3600 / e.measureS
		v.allPerH = float64(all) * 3600 / e.measureS
		v.nonSamplingPerH = v.allPerH - v.samplingPerH
	}
	return v
}

// bench accumulates one run's measurements. Its host clock excludes the
// benchmark's own work (output checks, heap sampling), which runs
// between pause and resume.
type bench struct {
	tr *tracer // nil in untraced runs

	start    time.Time
	overhead time.Duration
	paused   time.Time

	setupS    []float64
	flushS    []float64
	ops       []op
	episodes  []*episode
	heapProbe []metrics.Sample

	counts    counts
	runtime   runtimeCounts // runtime/metrics over traced episodes
	profiles  [][]byte      // CPU profile of each traced episode
	publishMS [4][]float64  // Publish durations by session quarter
	nextOp    int
}

// counts are exact work counts, reported per op by traced runs. The
// map-attempt counts come from an event-bus listener only traced runs
// attach.
type counts struct {
	events          uint64
	mapStarted      int64
	mapFinished     int64
	recordsRead     int64
	mapOutput       int64
	reduceInput     int64
	rowsReturned    int64
	evaluations     int64
	samplingQueries int64
	tracerSpans     int64 // spans the cluster's own tracer recorded
	archiveBytes    []float64
}

func newBench(tr *tracer) *bench {
	return &bench{
		tr:        tr,
		start:     time.Now(),
		heapProbe: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
}

// now is the host clock minus benchmark overhead.
func (b *bench) now() time.Duration { return time.Since(b.start) - b.overhead }

func (b *bench) pause() { b.paused = time.Now() }

func (b *bench) resume() { b.overhead += time.Since(b.paused) }

// finishOp records a completed op of episode ep and samples the live
// heap after it.
func (b *bench) finishOp(ep *episode, o op) {
	b.sampleHeap(ep)
	b.ops = append(b.ops, o)
	ep.ops = append(ep.ops, o)
}

// settle collects garbage after an episode, while its cluster is still
// open, and samples the live heap, so the episode's peak includes all
// its session retains whenever the last GC ran.
func (b *bench) settle(ep *episode) {
	runtime.GC()
	b.sampleHeap(ep)
}

// sampleHeap raises ep's peak to the live heap the last GC measured.
func (b *bench) sampleHeap(ep *episode) {
	metrics.Read(b.heapProbe)
	if v := b.heapProbe[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > ep.peakHeap {
		ep.peakHeap = v.Uint64()
	}
}

// peakHeapMB is the median over episodes of each one's peak live heap.
func peakHeapMB(eps []*episode) float64 {
	var xs []float64
	for _, e := range eps {
		xs = append(xs, float64(e.peakHeap)/1e6)
	}
	return median(xs)
}

func (b *bench) failed() int {
	n := 0
	for _, o := range b.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// firstErrors returns up to n distinct op errors, for the report.
func (b *bench) firstErrors(n int) []string {
	var out []string
	seen := map[string]bool{}
	for _, o := range b.ops {
		if o.err == nil || seen[o.err.Error()] {
			continue
		}
		seen[o.err.Error()] = true
		out = append(out, o.err.Error())
		if len(out) == n {
			break
		}
	}
	return out
}

// quantile returns the q-quantile of xs (nearest rank), or 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// span is one timed call the benchmark made into a module.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	// StartNS and EndNS are host nanoseconds since the run started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory; they are written when the run ends. A
// nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, opID, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Op: opID,
		StartNS: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

// end closes a span and returns its duration (0 on a nil tracer).
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// durations returns the durations of every span with the given name,
// in the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/float64(unit))
		}
	}
	return out
}

func (t *tracer) total(name string, unit time.Duration) float64 {
	return sum(t.durations(name, unit))
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
