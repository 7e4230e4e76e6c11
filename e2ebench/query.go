package main

import (
	"fmt"
	"time"

	"dynamicmr"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/mapreduce"
)

// deadlineS bounds one query's virtual runtime, as hive.Session does.
const deadlineS = 1e7

// setupCluster times one episode's set-up: NewCluster, a LoadLineItem
// per table and opening the named sessions.
func (b *bench) setupCluster(opts []dynamicmr.Option, tables []table, sessions []string) (*dynamicmr.Cluster, []*dataset.Dataset, error) {
	t0 := time.Now()
	root := b.tr.begin("setup", -1, -1)
	defer b.tr.end(root)
	c, err := dynamicmr.NewCluster(opts...)
	if err != nil {
		return nil, nil, err
	}
	dss := make([]*dataset.Dataset, len(tables))
	for i, t := range tables {
		sp := b.tr.begin("dataset.load", -1, root)
		ds, err := c.LoadLineItem(t.name, t.spec)
		b.tr.end(sp)
		if err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("load %s: %w", t.name, err)
		}
		dss[i] = ds
	}
	for _, s := range sessions {
		c.Session(s)
	}
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	if b.tr != nil {
		subscribe(c.JobTracker(), &b.counts)
	}
	return c, dss, nil
}

// table is one LINEITEM table of a workload.
type table struct {
	name string
	spec dynamicmr.DatasetSpec
}

// subscribe counts map attempts started and completed on the
// JobTracker's event bus.
func subscribe(jt *mapreduce.JobTracker, n *counts) {
	jt.Subscribe(func(e mapreduce.TaskEvent) {
		switch e.Type {
		case mapreduce.EventMapStarted:
			n.mapStarted++
		case mapreduce.EventMapFinished:
			n.mapFinished++
		}
	})
}

// query runs one sampling query the way Cluster.Sample does — plan and
// submit through the session, then drive the engine until the job is
// done — followed by after (serve-loop's Publish, given the op's span).
// It then checks the result off the host clock and records the op in
// ep. Traced runs also time hive.Parse on its own.
func (b *bench) query(ep *episode, c *dynamicmr.Cluster, sess *hive.Session, policy, sql string, exp expectation, opID int, after func(parent int)) {
	tr := b.tr
	eng := c.Engine()
	o := op{class: classSampling, counted: true, key: sql}
	root := tr.begin("op", opID, -1)
	fail := func(err error) {
		tr.end(root)
		o.err = err
		b.finishOp(ep, o)
	}
	t0 := b.now()
	if tr != nil {
		sp := tr.begin("hive.parse", opID, root)
		_, err := hive.Parse(sql)
		tr.end(sp)
		if err != nil {
			fail(err)
			return
		}
	}
	sess.Set(mapreduce.ConfDynamicPolicy, policy)
	sp := tr.begin("hive.submit", opID, root)
	client, job, err := sess.SubmitAsync(sql)
	tr.end(sp)
	if err != nil {
		fail(err)
		return
	}
	ev0 := eng.Processed()
	sp = tr.begin("sim.drive", opID, root)
	done := mapreduce.RunUntilDone(eng, job, eng.Now()+deadlineS)
	tr.end(sp)
	events := eng.Processed() - ev0
	if after != nil {
		after(root)
	}
	o.hostMS = float64(b.now()-t0) / float64(time.Millisecond)
	tr.end(root)
	ep.hostS += o.hostMS / 1000

	b.pause()
	defer b.resume()
	b.counts.events += events
	o.vrespS, o.vfinishS = job.ResponseTime(), job.FinishTime
	switch {
	case !done:
		o.err = fmt.Errorf("%s: deadline exceeded", sql)
	case job.State() == mapreduce.StateFailed:
		o.err = fmt.Errorf("%s: job failed: %s", sql, job.Failure())
	default:
		o.err = b.collect(&o, job, client.Evaluations(), exp, sql)
	}
	b.finishOp(ep, o)
}

// collect checks a finished job's output, hashes its rows and adds its
// work counts.
func (b *bench) collect(o *op, job *mapreduce.Job, evaluations int, exp expectation, sql string) error {
	out := job.Output()
	rows := make([]data.Record, len(out))
	for i, kv := range out {
		rows[i] = kv.Value
	}
	o.rowsHash = hashRows(rows)
	n := &b.counts
	n.recordsRead += job.Counters.MapInputRecords
	n.mapOutput += job.Counters.MapOutputRecords
	n.reduceInput += job.Counters.ReduceInputRecs
	n.rowsReturned += int64(len(rows))
	if o.class == classSampling {
		n.samplingQueries++
		n.evaluations += int64(evaluations)
	}
	if err := check(rows, job.CompletedMaps(), exp); err != nil {
		return fmt.Errorf("%s: %w", sql, err)
	}
	return nil
}
