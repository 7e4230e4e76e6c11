package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/expr"
)

// expectation describes what a correct result of one op looks like.
type expectation struct {
	pred expr.Expr
	// k is the sample size; negative for a Non-Sampling (no LIMIT) job.
	k int64
	// partitions is the table's partition count: a sampling job that
	// consumed all of them may return fewer than k rows.
	partitions int
	// ds is the table's dataset, for the match total.
	ds *dataset.Dataset
	// planted marks ds's own planted predicate, whose match total is
	// known without a scan.
	planted bool
}

// check verifies a result: every row satisfies the predicate
// (re-evaluated with expr on the projected row, which carries the
// predicate's columns), and the row count is exactly k, or every match
// when the job had no limit or consumed all partitions.
func check(rows []data.Record, consumed int, exp expectation) error {
	for i, r := range rows {
		ok, err := expr.EvalBool(exp.pred, r)
		if err != nil {
			return fmt.Errorf("row %d: %v", i, err)
		}
		if !ok {
			return fmt.Errorf("row %d does not satisfy %s: %s", i, exp.pred, r)
		}
	}
	n := int64(len(rows))
	if exp.k >= 0 {
		switch {
		case n == exp.k:
			return nil
		case n > exp.k:
			return fmt.Errorf("%d rows for LIMIT %d", n, exp.k)
		case consumed < exp.partitions:
			return fmt.Errorf("%d rows for LIMIT %d after %d of %d partitions", n, exp.k, consumed, exp.partitions)
		}
	}
	total, err := totalMatches(exp)
	if err != nil {
		return err
	}
	if n != total {
		return fmt.Errorf("%d rows, table has %d matches", n, total)
	}
	return nil
}

// totalMatches counts the predicate's matches in the table: known for
// the planted predicate, otherwise by a full scan.
func totalMatches(exp expectation) (int64, error) {
	if exp.planted {
		return exp.ds.TotalMatches(), nil
	}
	var total int64
	for _, p := range exp.ds.Partitions() {
		m, err := p.ScanMatches(exp.pred, -1)
		if err != nil {
			return 0, err
		}
		total += int64(len(m))
	}
	return total, nil
}

// hashRows is an order-independent hash of the rows' values, so the
// digest pins the result set without pinning the output order.
func hashRows(rows []data.Record) uint64 {
	var sum uint64
	h := fnv.New64a()
	var buf []byte
	for _, r := range rows {
		h.Reset()
		for i := 0; i < r.Len(); i++ {
			v := r.At(i)
			buf = append(buf[:0], byte(v.Kind()))
			switch v.Kind() {
			case data.KindInt, data.KindBool:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.AsInt()))
			case data.KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
			case data.KindString:
				buf = append(append(buf, v.AsString()...), 0)
			}
			h.Write(buf)
		}
		sum += h.Sum64()
	}
	return sum
}
