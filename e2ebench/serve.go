package main

import (
	"fmt"
	"math/rand"
	"time"

	"dynamicmr"
	"dynamicmr/internal/core"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/obs"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/tsdb"
)

// The serve-loop workload: a `dynmr serve` session without HTTP or
// pacing. The paper cluster runs with query stats, the utilization
// sampler, the time-series engine and one slo_burn rule; one client
// samples three tables (z=0/1/2) with every (table, k, policy)
// combination once per round, in seeded order, and publishes every
// endpoint after each query. The session length is
// part of the workload, since Publish cost grows with history; the
// session ends with the shutdown flush.
const (
	serveRounds   = 6 // of len(serveSkews) x len(serveKs) x len(servePolicies) queries
	serveScale    = 5
	serveInterval = 5.0 // sampler and tsdb cadence, virtual seconds
)

var (
	serveKs       = []int64{100, 1000, 10000}
	servePolicies = []string{core.PolicyLA, core.PolicyMA, core.PolicyHA, core.PolicyC}
	serveSkews    = []float64{0, 1, 2}
	serveRule     = tsdb.Rule{Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 30, MaxBurnPct: 5, WindowS: 300}
)

type serveLoop struct{ seed int64 }

func (s *serveLoop) describe() string {
	return fmt.Sprintf("paper cluster, qstats + utilization sampler + tsdb (%gs) + 1 slo_burn rule; tables z=0/1/2 at scale %d (%d rows each, planted 0.05%%); session of %d rounds x every (table, k in %v, policy in %v), seeded order; flush = Diagnose + BuildArchive + Write",
		serveInterval, serveScale, serveScale*6_000_000, serveRounds, serveKs, servePolicies)
}

func (s *serveLoop) setup(b *bench) (*dynamicmr.Cluster, []*dataset.Dataset, error) {
	tables := make([]table, len(serveSkews))
	for i, z := range serveSkews {
		tables[i] = table{
			name: fmt.Sprintf("lineitem_z%g", z),
			spec: dynamicmr.DatasetSpec{Scale: serveScale, Skew: z, Seed: s.seed*1000 + int64(i)},
		}
	}
	return b.setupCluster([]dynamicmr.Option{
		dynamicmr.WithQueryStats(),
		dynamicmr.WithUtilizationSampling(serveInterval),
		dynamicmr.WithTimeSeries(serveInterval),
		dynamicmr.WithAlertRules(serveRule),
	}, tables, []string{"default"})
}

func (s *serveLoop) episode(b *bench) (*episode, *dynamicmr.Cluster, error) {
	c, dss, err := s.setup(b)
	if err != nil {
		return nil, nil, err
	}
	srv := obs.NewServer(c.Sampler())
	srv.SetQueryStats(c.QueryStats())
	srv.SetTSDB(c.TSDB())
	sess := c.Session("default")

	// The query order is a function of the seed alone; the mix is the
	// same for every seed.
	rng := rand.New(rand.NewSource(s.seed))
	perRound := len(dss) * len(serveKs) * len(servePolicies)
	queries := serveRounds * perRound
	var order []int
	ep := &episode{}
	v0 := c.Now()
	for i := 0; i < queries; i++ {
		if i%perRound == 0 {
			order = rng.Perm(perRound)
		}
		q := order[i%perRound]
		ds := dss[q%len(dss)]
		k := serveKs[q/len(dss)%len(serveKs)]
		policy := servePolicies[q/len(dss)/len(serveKs)]
		pred := ds.Predicate()
		sql := fmt.Sprintf("SELECT L_ORDERKEY, L_PARTKEY, %s FROM %s WHERE %s LIMIT %d",
			predicateColumn(ds), ds.Name(), pred, k)
		exp := expectation{pred: pred, k: k, partitions: ds.NumPartitions(), ds: ds, planted: true}
		quarter := i * 4 / queries
		opID := b.nextOp
		b.nextOp++
		b.query(ep, c, sess, policy, sql, exp, opID, func(parent int) {
			sp := b.tr.begin("obs.publish", opID, parent)
			srv.Publish()
			if d := b.tr.end(sp); b.tr != nil {
				b.publishMS[quarter] = append(b.publishMS[quarter], float64(d)/float64(time.Millisecond))
			}
		})
	}
	ep.measureS = c.Now() - v0
	return ep, c, s.flush(b, c)
}

// flush is the shutdown flush `dynmr serve` performs on SIGINT:
// Diagnose, then BuildArchive, then Write.
func (s *serveLoop) flush(b *bench, c *dynamicmr.Cluster) error {
	tr := b.tr
	t0 := time.Now()
	root := tr.begin("flush", -1, -1)
	defer tr.end(root)
	sp := tr.begin("diag.diagnose", -1, root)
	_, err := c.Diagnose()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("runarchive.build", -1, root)
	a, err := c.BuildArchive("serve-loop", runarchive.RunConfig{Seed: s.seed})
	tr.end(sp)
	if err != nil {
		return err
	}
	var w countingWriter
	sp = tr.begin("runarchive.write", -1, root)
	err = a.Write(&w)
	tr.end(sp)
	if err != nil {
		return err
	}
	b.flushS = append(b.flushS, time.Since(t0).Seconds())
	b.counts.archiveBytes = append(b.counts.archiveBytes, float64(w.n))
	b.counts.tracerSpans += c.Tracer().SpanCount()
	return nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// predicateColumn names the column the table's planted predicate tests,
// so the projection carries it and the check can re-evaluate it.
func predicateColumn(ds *dataset.Dataset) string {
	return expr.Columns(ds.Predicate())[0]
}
