package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// width is the executor width of every parallel run in this package: the
// sweep pool and the sharded simulations (exchanges, clusters, the Fig. 19
// replay). Width never changes a result, only wall-clock.
func width() int { return runtime.GOMAXPROCS(0) }

// sweep runs fn(0) .. fn(n-1) across a width-sized worker pool. Every
// index runs exactly once; workers pull indices from a shared counter, so
// uneven per-index costs balance automatically. The figure sweeps fan
// independent core.Run simulations through it: each index writes only its
// own slot of a pre-sized result slice, which keeps output ordering — and
// therefore every rendered table — identical to the serial loop.
//
// All indices run even when some fail; the error for the lowest index wins,
// so error reporting is deterministic regardless of scheduling.
func sweep(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(width(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next, minFail atomic.Int64
	minFail.Store(int64(n))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Skip indices above the lowest failure seen so far: their
				// results would be discarded anyway. Lower indices still
				// run, so the winning (lowest-index) error is the same one
				// a full serial pass would return.
				if int64(i) > minFail.Load() {
					continue
				}
				if errs[i] = fn(i); errs[i] != nil {
					for {
						cur := minFail.Load()
						if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepRows fans row construction across the worker pool and appends the
// rows to t in index order, so rendered tables are identical to a serial
// loop. On error the table is left without the swept rows.
func sweepRows(t *Table, n int, fn func(i int) ([]string, error)) error {
	rows := make([][]string, n)
	if err := sweep(n, func(i int) error {
		row, err := fn(i)
		rows[i] = row
		return err
	}); err != nil {
		return err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return nil
}
