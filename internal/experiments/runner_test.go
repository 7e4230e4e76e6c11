package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dynamicmr/internal/core"
)

func TestRunCellsExecutesAllInAnyOrder(t *testing.T) {
	for _, par := range []int{0, 1, 2, 8, 100} {
		n := 37
		got := make([]int, n)
		if err := runCells(par, n, func(i int) error {
			got[i] = i + 1
			return nil
		}); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("par=%d: cell %d not executed", par, i)
			}
		}
	}
	if err := runCells(4, 0, func(int) error { t.Fatal("cell called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunCellsStopsSchedulingOnError(t *testing.T) {
	boom := errors.New("boom")
	// Cell 1 fails only once cell 0 is running, and cell 0 holds its
	// worker until that failure has been recorded, so no worker can
	// slip a new cell in before the failure is visible: exactly the two
	// in-flight cells run, and none of the 98 queued behind them.
	started, release := make(chan struct{}), make(chan struct{})
	defer func(h func()) { cellFailedHook = h }(cellFailedHook)
	cellFailedHook = func() { close(release) }
	var ran atomic.Int64
	err := runCells(2, 100, func(i int) error {
		ran.Add(1)
		switch i {
		case 0:
			close(started)
			<-release
		case 1:
			<-started
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// In-flight cells drain but the queue stops.
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d cells ran, want the 2 in flight when cell 1 failed", n)
	}

	// Sequential keeps fail-fast semantics.
	var seq int
	err = runCells(1, 10, func(i int) error {
		seq++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || seq != 3 {
		t.Fatalf("sequential: err=%v after %d cells, want boom after 3", err, seq)
	}
}

func TestRunCellsReturnsLowestIndexError(t *testing.T) {
	// The four first-wave cells wait for each other, so all of them run
	// before any failure is recorded; cell 0 fails last. The lowest
	// index wins whatever the order the failures were recorded in, and
	// no worker starts a queued cell after its own failure (a fifth
	// cell would drive the started counter negative and panic).
	var started, others sync.WaitGroup
	started.Add(4)
	others.Add(3)
	err := runCells(4, 8, func(i int) error {
		started.Done()
		started.Wait()
		if i == 0 {
			others.Wait()
		} else {
			defer others.Done()
		}
		return fmt.Errorf("cell %d failed", i)
	})
	if err == nil || err.Error() != "cell 0 failed" {
		t.Fatalf("err = %v, want lowest-index error", err)
	}
}

// TestFigure5ParallelCellsRace runs figure-5 cells concurrently (the
// satellite race check: two or more cells share only dsCache, the map
// output cache, and compiled registry policies) and requires the
// parallel result to equal the sequential one. Run under -race in CI.
func TestFigure5ParallelCellsRace(t *testing.T) {
	opt := tinyOptions()
	opt.Scales = []int{2}
	opt.Policies = []string{core.PolicyLA, core.PolicyHadoop}
	// Reporting turns on each cell's private tracer and sampler, so this
	// also pins registry isolation across concurrent cells.
	opt.ReportDir = t.TempDir()

	opt.Parallelism = 1
	seq, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 2
	par, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) != len(par.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		if seq.Cells[i] != par.Cells[i] {
			t.Fatalf("cell %d diverged:\nseq %+v\npar %+v", i, seq.Cells[i], par.Cells[i])
		}
	}
}

// TestFigure6ParallelDeterminism is the satellite determinism check:
// Figure6 on tiny options, sequential versus -j 4, must render
// byte-identical tables and CSVs.
func TestFigure6ParallelDeterminism(t *testing.T) {
	opt := tinyOptions()
	opt.Policies = []string{core.PolicyLA, core.PolicyHadoop}

	opt.Parallelism = 1
	seq, err := Figure6(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4
	par, err := Figure6(opt)
	if err != nil {
		t.Fatal(err)
	}

	seqTables, parTables := seq.Tables(), par.Tables()
	if len(seqTables) != len(parTables) {
		t.Fatalf("table counts differ: %d vs %d", len(seqTables), len(parTables))
	}
	for i := range seqTables {
		if s, p := seqTables[i].Render(), parTables[i].Render(); s != p {
			t.Errorf("rendered table %d differs between -j 1 and -j 4:\n--- sequential ---\n%s\n--- parallel ---\n%s", i, s, p)
		}
		if s, p := seqTables[i].CSV(), parTables[i].CSV(); s != p {
			t.Errorf("CSV %d differs between -j 1 and -j 4:\n--- sequential ---\n%s\n--- parallel ---\n%s", i, s, p)
		}
	}
}
