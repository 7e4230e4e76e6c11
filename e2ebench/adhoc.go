package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"dynamicmr"
	"dynamicmr/internal/core"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/tpch"
)

// The adhoc-scan workload: the paper cluster with telemetry off; one
// client sends sampling queries whose predicates lie outside the planted
// family, so map tasks generate every row and evaluate the predicate on
// it. Predicates are seeded conjunctions over natural-domain columns,
// stratified by (selectivity, k) cell so each episode's cost mix is the
// same across seeds; no op repeats anywhere in a run.
const (
	adhocQueries = 20 // per episode, two passes over the cells
	adhocScale   = 5
	adhocRows    = 800_000
	adhocPolicy  = core.PolicyLA
)

// adhocCells are the (selectivity, k) strata of one pass. Each needs
// well under the rows of the policy's first grab (8 partitions of
// 20 000 rows on the idle paper cluster), so no cell sits on the edge
// of a growth round and the virtual metrics do not flip with the seed.
var adhocCells = []struct {
	sel float64
	k   int64
}{
	{0.001, 100}, {0.003, 100}, {0.01, 100}, {0.03, 100}, {0.05, 100},
	{0.006, 500}, {0.01, 500}, {0.02, 500}, {0.03, 500}, {0.05, 500},
}

type adhocScan struct {
	seed int64
	rng  *rand.Rand      // the predicate stream, continued across episodes
	seen map[string]bool // every op of the run, so none repeats
}

func newAdhocScan(seed int64) *adhocScan {
	return &adhocScan{seed: seed, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (a *adhocScan) describe() string {
	return fmt.Sprintf("paper cluster, telemetry off; one z=0 table at scale %d, %d rows; %d queries per episode (fresh cluster), %s, (selectivity, k) cells %v; seeded natural-domain conjunctions, never repeated",
		adhocScale, adhocRows, adhocQueries, adhocPolicy, adhocCells)
}

func (a *adhocScan) setup(b *bench) (*dynamicmr.Cluster, []*dataset.Dataset, error) {
	return b.setupCluster(nil, []table{{
		name: "lineitem",
		spec: dynamicmr.DatasetSpec{Scale: adhocScale, Rows: adhocRows, Skew: 0, Seed: a.seed * 1000},
	}}, []string{"default"})
}

func (a *adhocScan) episode(b *bench) (*episode, *dynamicmr.Cluster, error) {
	c, dss, err := a.setup(b)
	if err != nil {
		return nil, nil, err
	}
	ds := dss[0]
	sess := c.Session("default")
	ep := &episode{}
	v0 := c.Now()
	for pass := 0; pass < adhocQueries/len(adhocCells); pass++ {
		for _, cell := range a.rng.Perm(len(adhocCells)) {
			target, k := adhocCells[cell].sel, adhocCells[cell].k
			var sql string
			var pred string
			for {
				var cols []string
				pred, cols = conjunction(a.rng, target)
				sql = fmt.Sprintf("SELECT L_ORDERKEY, %s FROM %s WHERE %s LIMIT %d", strings.Join(cols, ", "), ds.Name(), pred, k)
				if !a.seen[sql] {
					a.seen[sql] = true
					break
				}
			}
			where, err := hive.ParsePredicate(pred)
			if err != nil {
				return nil, c, err
			}
			exp := expectation{pred: where, k: k, partitions: ds.NumPartitions(), ds: ds}
			opID := b.nextOp
			b.nextOp++
			b.query(ep, c, sess, adhocPolicy, sql, exp, opID, nil)
		}
	}
	ep.measureS = c.Now() - v0
	return ep, c, nil
}

// atom is one conjunct over a natural-domain LINEITEM column, with its
// exact selectivity under the TPC-H generator's uniform draws.
type atom struct {
	col string
	sql string
	sel float64
}

// categorical draws one conjunct on a low-cardinality column.
func categorical(rng *rand.Rand, col string) atom {
	switch col {
	case "L_DISCOUNT": // 0.00..0.10
		lo := rng.Intn(11)
		hi := lo + rng.Intn(3)
		if hi > 10 {
			hi = 10
		}
		return atom{col, fmt.Sprintf("L_DISCOUNT BETWEEN %.2f AND %.2f", float64(lo)/100, float64(hi)/100), float64(hi-lo+1) / 11}
	case "L_TAX": // 0.00..0.08
		t := rng.Intn(9)
		return atom{col, fmt.Sprintf("L_TAX = %.2f", float64(t)/100), 1.0 / 9}
	case "L_SHIPINSTRUCT":
		s := []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}[rng.Intn(4)]
		return atom{col, fmt.Sprintf("L_SHIPINSTRUCT = '%s'", s), 0.25}
	case "L_SHIPMODE":
		modes := rng.Perm(len(tpch.ShipModes))[:1+rng.Intn(2)]
		quoted := make([]string, len(modes))
		for i, m := range modes {
			quoted[i] = "'" + tpch.ShipModes[m] + "'"
		}
		return atom{col, fmt.Sprintf("L_SHIPMODE IN (%s)", strings.Join(quoted, ", ")), float64(len(modes)) / 7}
	default: // L_LINENUMBER, 1..4
		return atom{"L_LINENUMBER", fmt.Sprintf("L_LINENUMBER = %d", 1+rng.Intn(4)), 0.25}
	}
}

// conjunction draws a predicate whose exact selectivity lies within 10%
// of target: one to three categorical conjuncts, then an L_QUANTITY
// range (1..50) sized to close the gap. It returns the predicate and
// the columns it tests.
func conjunction(rng *rand.Rand, target float64) (string, []string) {
	columns := []string{"L_DISCOUNT", "L_TAX", "L_SHIPINSTRUCT", "L_SHIPMODE", "L_LINENUMBER"}
	for {
		var atoms []atom
		sel := 1.0
		for _, i := range rng.Perm(len(columns))[:1+rng.Intn(3)] {
			at := categorical(rng, columns[i])
			atoms = append(atoms, at)
			sel *= at.sel
		}
		if w := int(math.Round(target / sel * 50)); w >= 1 && w < 50 {
			lo := 1 + rng.Intn(50-w+1)
			atoms = append(atoms, atom{"L_QUANTITY", fmt.Sprintf("L_QUANTITY BETWEEN %d AND %d", lo, lo+w-1), float64(w) / 50})
			sel *= float64(w) / 50
		}
		if math.Abs(sel-target) > 0.1*target {
			continue
		}
		rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
		sqls := make([]string, len(atoms))
		cols := make([]string, len(atoms))
		for i, at := range atoms {
			sqls[i], cols[i] = at.sql, at.col
		}
		return strings.Join(sqls, " AND "), cols
	}
}
