package main

import (
	"fmt"
	"time"

	"dynamicmr"
	"dynamicmr/internal/core"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/mapreduce"
)

// The mixed workload: the Figure 7 shape on the multi-user-slot FIFO
// cluster. Ten closed-loop users each own one z=0 LINEITEM table; half
// draw LA samples of k rows, half run the Non-Sampling select-project
// scan. The users live inside the one engine goroutine. Every episode
// repeats the same virtual window from a fresh cluster.
const (
	mixedUsers     = 10
	mixedSampling  = 5
	mixedScale     = 20
	mixedRows      = 48_000_000
	mixedK         = 1000
	mixedPolicy    = core.PolicyLA
	mixedWarmupS   = 100
	mixedMeasureS  = 200
	mixedProjected = "L_ORDERKEY, L_PARTKEY, L_DISCOUNT"
)

type mixed struct{ seed int64 }

func (m *mixed) describe() string {
	return fmt.Sprintf("%d users (%d Sampling: %s k=%d; %d Non-Sampling), one z=0 table each: scale %d, %d rows, planted 0.05%%; multi-user slots, FIFO; window %gs warm-up + %gs measured (virtual); telemetry off",
		mixedUsers, mixedSampling, mixedPolicy, mixedK, mixedUsers-mixedSampling, mixedScale, mixedRows, float64(mixedWarmupS), float64(mixedMeasureS))
}

func (m *mixed) setup(b *bench) (*dynamicmr.Cluster, []*dataset.Dataset, error) {
	tables := make([]table, mixedUsers)
	users := make([]string, mixedUsers)
	for u := range tables {
		tables[u] = table{
			name: fmt.Sprintf("lineitem_u%d", u),
			spec: dynamicmr.DatasetSpec{Scale: mixedScale, Rows: mixedRows, Skew: 0, Seed: m.seed*1000 + int64(u)},
		}
		users[u] = fmt.Sprintf("user%d", u)
	}
	return b.setupCluster([]dynamicmr.Option{dynamicmr.WithMultiUserSlots()}, tables, users)
}

// mixedUser is one closed-loop participant and its in-flight job.
type mixedUser struct {
	class  string
	sql    string
	sess   *hive.Session
	exp    expectation
	job    *mapreduce.Job
	client *core.JobClient
	opID   int
	span   int
	start  time.Duration
}

func (m *mixed) episode(b *bench) (*episode, *dynamicmr.Cluster, error) {
	c, dss, err := m.setup(b)
	if err != nil {
		return nil, nil, err
	}
	users := make([]*mixedUser, mixedUsers)
	for u, ds := range dss {
		sess := c.Session(fmt.Sprintf("user%d", u))
		pred := ds.Predicate()
		mu := &mixedUser{sess: sess, exp: expectation{pred: pred, k: -1, partitions: ds.NumPartitions(), ds: ds, planted: true}}
		if u < mixedSampling {
			sess.Set(mapreduce.ConfDynamicPolicy, mixedPolicy)
			mu.class = classSampling
			mu.sql = fmt.Sprintf("SELECT %s FROM %s WHERE %s LIMIT %d", mixedProjected, ds.Name(), pred, mixedK)
			mu.exp.k = mixedK
		} else {
			mu.class = classNonSampling
			mu.sql = fmt.Sprintf("SELECT %s FROM %s WHERE %s", mixedProjected, ds.Name(), pred)
		}
		users[u] = mu
	}

	eng := c.Engine()
	measureStart := eng.Now() + mixedWarmupS
	end := measureStart + mixedMeasureS
	ep := &episode{measureS: mixedMeasureS}
	tr := b.tr
	loopStart := b.now()

	submit := func(u *mixedUser) error {
		u.opID = b.nextOp
		b.nextOp++
		u.span = tr.begin("op", u.opID, -1)
		u.start = b.now()
		if tr != nil {
			sp := tr.begin("hive.parse", u.opID, u.span)
			_, err := hive.Parse(u.sql)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		sp := tr.begin("hive.submit", u.opID, u.span)
		client, job, err := u.sess.SubmitAsync(u.sql)
		tr.end(sp)
		u.client, u.job = client, job
		return err
	}
	complete := func(u *mixedUser) error {
		tr.end(u.span)
		o := op{class: u.class, key: u.sql, hostMS: float64(b.now()-u.start) / float64(time.Millisecond)}
		b.pause()
		defer b.resume()
		job := u.job
		o.vrespS, o.vfinishS = job.ResponseTime(), job.FinishTime
		o.counted = job.FinishTime >= measureStart && job.FinishTime < end
		if job.State() == mapreduce.StateFailed {
			o.err = fmt.Errorf("%s: job failed: %s", u.sql, job.Failure())
		} else {
			evaluations := 0
			if u.client != nil {
				evaluations = u.client.Evaluations()
			}
			o.err = b.collect(&o, job, evaluations, u.exp, u.sql)
		}
		b.finishOp(ep, o)
		// Release the finished job's buffers, as the workload generator
		// does, so a long window's cost tracks in-flight work.
		return c.JobTracker().Retire(job)
	}

	for _, u := range users {
		if err := submit(u); err != nil {
			return nil, c, err
		}
	}
	for eng.Now() < end {
		sp := tr.begin("sim.drive", -1, -1)
		ev0 := eng.Processed()
		for eng.Now() < end && !anyDone(users) {
			if !eng.Step() {
				return nil, c, fmt.Errorf("mixed: event queue drained at t=%.0fs", eng.Now())
			}
		}
		tr.end(sp)
		b.counts.events += eng.Processed() - ev0
		for _, u := range users {
			if !u.job.Done() {
				continue
			}
			if err := complete(u); err != nil {
				return nil, c, err
			}
			if eng.Now() < end {
				if err := submit(u); err != nil {
					return nil, c, err
				}
			}
		}
	}
	ep.hostS = (b.now() - loopStart).Seconds()
	// Jobs still running when the window closes are abandoned; close
	// their spans.
	for _, u := range users {
		if !u.job.Done() {
			tr.end(u.span)
		}
	}
	return ep, c, nil
}

func anyDone(users []*mixedUser) bool {
	for _, u := range users {
		if u.job.Done() {
			return true
		}
	}
	return false
}
