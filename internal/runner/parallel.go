// parallel.go is the worker pool every sweep runs on, at every
// Parallelism.
//
// Determinism argument: every cell is an independent simulation that
// derives all of its state (profile, scheme, attack, randomness) from its
// own configuration, so cells may execute in any order and on any
// goroutine without affecting their values. What must stay ordered is the
// *commitment* of outcomes: results are recorded, StatusDone/StatusFailed/
// StatusCached events emitted, and checkpoint snapshots written by a
// single collector that walks the cells strictly in sweep order, waiting
// for each cell's outcome before moving on. The sequence of checkpoint
// file states is therefore the same at every worker count (restricted,
// under cancellation, to the cells that completed), and
// Report.Results/Failed are bit-identical at every parallelism level.
//
// The pool runs at most Parallelism cells ahead of the collector: cell i
// is handed to a worker only once cell i-Parallelism is committed. With
// one worker, cell i therefore starts after cell i-1's Done event and
// checkpoint, exactly where a sequential loop would start it.
//
// Cancellation follows one rule: a worker never starts a cell once the
// run's context is done, and every cell already in flight finishes (or
// observes the cancellation itself) with its successful outcome
// committed. With one worker that is exactly the cells before the
// cancellation point plus the one in flight; a cancellation from a
// Progress callback stops the sweep before the next cell starts. The
// checkpoint holds only bit-exact completed cells, so a resumed sweep at
// any worker count converges to the identical final report.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"sync" //lint:allow nondeterminism "the worker pool is the sanctioned parallelism site; the ordered collector keeps committed bytes identical at every parallelism level"
)

// outcome carries one computed cell from a worker to the collector.
type outcome[T any] struct {
	v       T
	err     error
	memoHit bool
}

// runPool executes the non-checkpointed cells on a bounded worker pool
// and commits outcomes in sweep order. It mutates rep in place and
// returns the first checkpoint I/O or decode error.
func runPool[T any](ctx context.Context, cfg Config, cells []Cell[T], ckpt checkpoint, rep *Report[T]) error {
	runCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// On every exit: stop the feeder and workers, then wait for in-flight
	// cells, so no goroutine outlives Run (and no Progress callback fires
	// after Run returns).
	defer wg.Wait() //lint:allow ctxprop "bounded: the deferred cancel below runs first, which stops the feeder and drains the workers"
	defer cancel()

	var progressMu sync.Mutex
	emit := func(ev Event) {
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		cfg.Progress(ev)
	}

	// Checkpointed cells are decoded before any cell starts: an entry
	// that does not decode as T makes the whole file corrupt. Every other
	// cell is pending and gets one buffered outcome slot, so a worker
	// never blocks handing over a result and the collector can still
	// drain outcomes that landed after cancellation.
	resumed := make(map[int]T)
	pending := make([]int, 0, len(cells))
	outcomes := make([]chan outcome[T], len(cells))
	for i, c := range cells {
		raw, ok := ckpt.Completed[c.Key]
		if !ok {
			pending = append(pending, i)
			outcomes[i] = make(chan outcome[T], 1)
			continue
		}
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("runner: checkpoint %s entry %q is corrupt (%v): %w",
				cfg.CheckpointPath, c.Key, err, ErrCorruptCheckpoint)
		}
		resumed[i] = v
	}
	workers := cfg.parallelism()
	if workers > len(pending) {
		workers = len(pending)
	}

	// window holds one token per started, uncommitted cell: the feeder
	// takes one before each hand-off and the collector returns it once
	// the cell is committed, so workers never run more than `workers`
	// cells ahead of the commit point.
	window := make(chan struct{}, workers)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { //lint:allow nondeterminism "worker goroutine of the sanctioned pool; outcome commitment stays in sweep order"
			defer wg.Done()
			for i := range work { //lint:allow ctxprop "bounded: the feeder closes work when runCtx is canceled, ending this range"
				if runCtx.Err() != nil {
					// The feeder's hand-off raced the cancellation: leave
					// the cell unstarted, so no cell begins after the cut.
					continue
				}
				v, memoHit, err := runCell(runCtx, cfg, cells[i], i, len(cells), emit)
				outcomes[i] <- outcome[T]{v: v, err: err, memoHit: memoHit} //lint:allow ctxprop "never blocks: outcomes[i] has capacity 1 and exactly one send"
			}
		}()
	}
	wg.Add(1)
	go func() { //lint:allow nondeterminism "feeder goroutine of the sanctioned pool; sends are already selectable on runCtx.Done"
		defer wg.Done()
		defer close(work)
		for _, i := range pending {
			select {
			case window <- struct{}{}:
			case <-runCtx.Done():
				return
			}
			select {
			case work <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()
	// idle closes once every worker has exited — after cancellation this
	// is the signal that no further outcomes can arrive.
	idle := make(chan struct{})
	go func() { //lint:allow nondeterminism "idle-closer goroutine of the sanctioned pool"
		wg.Wait() //lint:allow ctxprop "this wait IS the ctx-bounding: it converts pool shutdown into the selectable idle channel"
		close(idle)
	}()

	for i, c := range cells {
		if v, ok := resumed[i]; ok {
			rep.Results[c.Key] = v
			rep.Resumed++
			emit(Event{Key: c.Key, Index: i, Total: len(cells), Status: StatusCached})
			continue
		}
		var out outcome[T]
		select {
		case out = <-outcomes[i]:
		case <-idle:
			// The pool shut down (cancellation). The cell's outcome may
			// still have been buffered just before the workers exited.
			select {
			case out = <-outcomes[i]:
			default:
				rep.Interrupted = true
				continue
			}
		}
		switch {
		case out.err == nil:
			rep.Results[c.Key] = out.v
			emit(Event{Key: c.Key, Index: i, Total: len(cells), Status: doneStatus(out.memoHit)})
			if err := saveCheckpoint(cfg, ckpt, c.Key, out.v); err != nil {
				return err
			}
		case ctx.Err() != nil:
			// The failure reflects cancellation, not the cell: leave it
			// incomplete so a resumed sweep recomputes it.
			rep.Interrupted = true
		default:
			rep.Failed[c.Key] = out.err.Error()
			emit(Event{Key: c.Key, Index: i, Total: len(cells),
				Status: StatusFailed, Attempt: cfg.Retries + 1, Err: out.err.Error()})
		}
		// Cell i is committed: the feeder may start one more.
		<-window //lint:allow ctxprop "never blocks: cell i was handed out, so its token is in window"
	}
	return nil
}
