package main

import (
	"bytes"
	"math"
	"math/rand"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/tpch"
)

// plantedMatches builds a small z=1 table (L_QUANTITY > 50) and returns
// it with every match projected onto (L_ORDERKEY, L_QUANTITY).
func plantedMatches(t *testing.T) (*dataset.Dataset, []data.Record) {
	t.Helper()
	ds, err := dataset.Build(dataset.Spec{Scale: 1, RowsOverride: 40_000, Partitions: 4, Seed: 7, Z: 1, Selectivity: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := tpch.LineItemSchema.Project("L_ORDERKEY", "L_QUANTITY")
	if err != nil {
		t.Fatal(err)
	}
	var rows []data.Record
	for _, p := range ds.Partitions() {
		m, err := p.ScanMatches(ds.Predicate(), -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range m {
			rows = append(rows, r.Project(proj))
		}
	}
	if int64(len(rows)) != ds.TotalMatches() || len(rows) < 10 {
		t.Fatalf("scan found %d matches, dataset planted %d", len(rows), ds.TotalMatches())
	}
	return ds, rows
}

func TestCheckCatchesPlantedWrongRow(t *testing.T) {
	ds, rows := plantedMatches(t)
	sample := expectation{pred: ds.Predicate(), k: 5, partitions: ds.NumPartitions(), ds: ds, planted: true}
	if err := check(rows[:5], 1, sample); err != nil {
		t.Fatalf("correct sample rejected: %v", err)
	}
	wrong := append(append([]data.Record(nil), rows[:4]...), rows[4].With("L_QUANTITY", data.Int(7)))
	if err := check(wrong, 1, sample); err == nil || !strings.Contains(err.Error(), "does not satisfy") {
		t.Fatalf("planted wrong row not caught: %v", err)
	}
	if err := check(rows[:4], 1, sample); err == nil {
		t.Fatal("short sample before consuming every partition not caught")
	}
	if err := check(rows[:6], 1, sample); err == nil {
		t.Fatal("oversized sample not caught")
	}

	// k beyond the table's matches: every match, once all partitions ran.
	all := expectation{pred: ds.Predicate(), k: 1 << 40, partitions: ds.NumPartitions(), ds: ds, planted: true}
	if err := check(rows, ds.NumPartitions(), all); err != nil {
		t.Fatalf("every match rejected: %v", err)
	}
	if err := check(rows[1:], ds.NumPartitions(), all); err == nil {
		t.Fatal("missing match not caught")
	}

	// A Non-Sampling job returns TotalMatches rows; the scan path (an
	// ad-hoc predicate) must agree with the planted count.
	scan := expectation{pred: ds.Predicate(), k: -1, partitions: ds.NumPartitions(), ds: ds}
	if err := check(rows, ds.NumPartitions(), scan); err != nil {
		t.Fatalf("full result rejected: %v", err)
	}
	if err := check(rows[1:], ds.NumPartitions(), scan); err == nil {
		t.Fatal("short Non-Sampling result not caught")
	}
}

func TestHashRowsIsOrderIndependentAndValueSensitive(t *testing.T) {
	_, rows := plantedMatches(t)
	rev := make([]data.Record, len(rows))
	for i, r := range rows {
		rev[len(rows)-1-i] = r
	}
	if hashRows(rows) != hashRows(rev) {
		t.Fatal("hash depends on row order")
	}
	changed := append([]data.Record(nil), rows...)
	changed[3] = changed[3].With("L_ORDERKEY", data.Int(changed[3].MustGet("L_ORDERKEY").AsInt()+1))
	if hashRows(rows) == hashRows(changed) {
		t.Fatal("hash ignores a changed value")
	}
}

// TestConjunctionSelectivity checks the ad-hoc predicates parse, test
// only the columns they report, and match about the target share of
// generated rows.
func TestConjunctionSelectivity(t *testing.T) {
	gen := tpch.NewGenerator(11, 1)
	const n = 200_000
	rows := make([]data.Record, n)
	for i := range rows {
		rows[i] = gen.Row(int64(i))
	}
	rng := rand.New(rand.NewSource(3))
	for _, target := range []float64{0.01, 0.05} {
		for trial := 0; trial < 5; trial++ {
			src, cols := conjunction(rng, target)
			pred, err := hive.ParsePredicate(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			got := expr.Columns(pred)
			if len(got) != len(cols) {
				t.Fatalf("%s tests %v, reported %v", src, got, cols)
			}
			matches := 0
			for _, r := range rows {
				ok, err := expr.EvalBool(pred, r)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					matches++
				}
			}
			sel := float64(matches) / n
			// 10% construction tolerance plus sampling noise.
			if math.Abs(sel-target) > 0.2*target+3*math.Sqrt(target/n) {
				t.Errorf("%s: selectivity %.4f, target %.4f", src, sel, target)
			}
		}
	}
}

// TestAdhocDigest runs one ad-hoc episode per seed: the same seed gives
// the same digest, another seed another one.
func TestAdhocDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulated queries")
	}
	digest := func(seed int64) uint64 {
		b := newBench(nil)
		ep, c, err := newAdhocScan(seed).episode(b)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if f := b.failed(); f != 0 {
			t.Fatalf("seed %d: %d failed ops: %v", seed, f, b.firstErrors(3))
		}
		return ep.digest()
	}
	a, again, other := digest(1), digest(1), digest(2)
	if a != again {
		t.Fatalf("seed 1 digests differ: %016x vs %016x", a, again)
	}
	if a == other {
		t.Fatalf("seeds 1 and 2 share digest %016x", a)
	}
}

// TestCPUSharesAttributesModules profiles row generation and expects
// its samples charged to tpch and data (or to GC and the runtime), with
// shares summing to one.
func TestCPUSharesAttributesModules(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	gen := tpch.NewGenerator(1, 1)
	for end, i := time.Now().Add(300*time.Millisecond), int64(0); time.Now().Before(end); i++ {
		gen.Row(i % gen.NumRows())
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares([][]byte{prof.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", total, shares)
	}
	if shares["tpch"]+shares["data"] == 0 {
		t.Fatalf("row generation not charged to tpch/data: %v", shares)
	}
	for m, share := range shares {
		switch m {
		case "tpch", "data", bucketGC, bucketOther:
		default:
			if share != 0 {
				t.Errorf("%s charged %.3f of the samples: %v", m, share, shares)
			}
		}
	}
}

func TestBucket(t *testing.T) {
	named := map[string]bool{"mapreduce": true, "sim": true}
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "dynamicmr/internal/mapreduce/executor.(*Pool).run", "dynamicmr/internal/sim.(*Engine).Step"}, "mapreduce"},
		{[]string{"dynamicmr/internal/sim.(*Engine).step.func1"}, "sim"},
		{[]string{"dynamicmr/internal/dfs.(*DFS).Create"}, bucketOtherModules},
		{[]string{"dynamicmr.(*Cluster).Sample"}, bucketOtherModules},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"hash/fnv.(*sum64a).Write", "main.hashRows", "dynamicmr/internal/sim.(*Engine).Step"}, bucketOther},
		{[]string{"runtime.futex"}, bucketOther},
	} {
		if got := bucket(c.frames, named); got != c.want {
			t.Errorf("bucket(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
