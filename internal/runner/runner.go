// Package runner is the resilient sweep supervisor for the experiment
// harness. A sweep is a list of independent cells (one simulation
// configuration each); the runner executes them on a bounded worker pool
// under a shared context, survives individual cell failures, and
// checkpoints completed cells to a JSON file so an interrupted sweep
// resumes where it left off instead of recomputing hours of simulation.
//
// Resilience mechanisms, per cell:
//
//   - panic recovery: a panicking cell is converted to a recorded error
//     (with stack) instead of killing the sweep;
//   - per-cell deadline: Config.CellTimeout bounds each attempt through a
//     derived context;
//   - bounded deterministic retry: a failed cell is retried immediately up
//     to Config.Retries times — no sleeps, no jitter, so a retried sweep
//     is reproducible;
//   - checkpoint/resume: each completed cell is appended to an atomic
//     JSON checkpoint (write-to-temp then rename) guarded by a sweep
//     fingerprint; a rerun with the same fingerprint loads completed
//     cells instead of recomputing them.
//
// Cancellation is cooperative: once the parent context is canceled no
// further cell starts, in-flight cells observe the same context, the
// cells that completed are checkpointed, and Run returns the partial
// report with Interrupted set — it does not return an error, so callers
// can always print partial results.
//
// Every sweep runs through one path: a bounded worker pool
// (Config.Parallelism workers; the default is one per available CPU, and
// 1 means one worker) whose single collector commits outcomes — records
// results, emits Done/Failed/Cached events, writes checkpoints — strictly
// in cell order. Because every cell is an independent, self-seeded
// simulation, results, failure reports and checkpoint contents are
// bit-identical at every parallelism level; only the interleaving of
// StatusStart/StatusRetry progress events and, under cancellation, the
// set of cells already in flight differ.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"maxwe/internal/atomicio"
	"maxwe/internal/memo"
)

// Cell is one unit of sweep work. Key must be unique within the sweep and
// stable across runs — it names the cell in checkpoints, progress events
// and failure reports.
type Cell[T any] struct {
	// Key identifies the cell (e.g. "fig8/start-gap/maxwe").
	Key string
	// Fingerprint, when non-empty, content-addresses the cell's result
	// for Config.Cache: any two cells with equal fingerprints — in this
	// sweep, another sweep, or another process sharing the cache
	// directory — must compute byte-identical values. Empty opts the
	// cell out of caching. Ignored when Config.Cache is nil.
	Fingerprint string
	// Run computes the cell's result. It must honor ctx cancellation for
	// the per-cell deadline and sweep interruption to work.
	Run func(ctx context.Context) (T, error)
}

// Config tunes the supervisor. The zero value runs cells once each with
// no deadline and no checkpointing.
type Config struct {
	// CellTimeout bounds each attempt of each cell (0 = no deadline).
	CellTimeout time.Duration
	// Retries is how many additional attempts a failed cell gets before
	// its error is recorded (0 = single attempt). Retries are immediate
	// and deterministic.
	Retries int
	// CheckpointPath, when non-empty, enables checkpoint/resume: completed
	// cells are persisted there after every cell, and an existing
	// checkpoint with a matching Fingerprint seeds the run.
	CheckpointPath string
	// Fingerprint identifies the sweep configuration. A checkpoint written
	// under a different fingerprint is rejected rather than silently mixed
	// into unrelated results. Required when CheckpointPath is set.
	Fingerprint string
	// Progress, when non-nil, receives one event per cell state change.
	// With Parallelism > 1 it is called from multiple goroutines but never
	// concurrently (the runner serializes invocations), so the callback
	// needs no locking of its own.
	Progress func(Event)
	// Parallelism bounds how many cells run concurrently. 0 selects
	// runtime.GOMAXPROCS(0) (one worker per available CPU); 1 means one
	// worker. Results, Failed and checkpoint contents are bit-identical
	// across parallelism levels; see the package comment.
	Parallelism int
	// FS is the filesystem checkpoints are read and written through. Nil
	// selects the real filesystem (atomicio.OS); the chaos harness passes
	// a fault-injecting implementation.
	FS atomicio.FS
	// Cache, when non-nil, memoizes cell results by Cell.Fingerprint: a
	// hit (StatusMemo) skips the computation entirely, and concurrently
	// identical cells — across workers and across sweeps sharing the
	// cache — compute once via singleflight. Hits commit in sweep order
	// exactly like computed cells, and both results and checkpoint bytes
	// are identical to a cache-off run (the bit-exactness the checkpoint
	// machinery already guarantees is what makes hits safe to serve).
	Cache *memo.Cache
}

// fs resolves the configured filesystem, defaulting to the real one.
func (c Config) fs() atomicio.FS {
	if c.FS != nil {
		return c.FS
	}
	return atomicio.OS
}

// parallelism resolves the configured worker count: the 0 default means
// one worker per available CPU.
func (c Config) parallelism() int {
	if c.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

// Status classifies a progress event.
type Status int

// Progress event states, in the order a cell moves through them.
const (
	// StatusStart fires when an attempt of a cell begins.
	StatusStart Status = iota
	// StatusDone fires when a cell completes successfully.
	StatusDone
	// StatusRetry fires when an attempt failed and another follows.
	StatusRetry
	// StatusFailed fires when a cell's last attempt failed.
	StatusFailed
	// StatusCached fires when a cell is satisfied from the checkpoint.
	StatusCached
	// StatusMemo fires when a cell is satisfied from the memo cache
	// (Config.Cache) — a content-addressed hit or a singleflight share
	// of a concurrent identical computation.
	StatusMemo
)

// String names the status for logs.
func (s Status) String() string {
	switch s {
	case StatusStart:
		return "start"
	case StatusDone:
		return "done"
	case StatusRetry:
		return "retry"
	case StatusFailed:
		return "failed"
	case StatusCached:
		return "cached"
	case StatusMemo:
		return "memo"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Event reports one cell state change to Config.Progress.
type Event struct {
	// Key is the cell's key.
	Key string
	// Index is the cell's position in the sweep (0-based); Total is the
	// sweep size.
	Index, Total int
	// Status is the state the cell moved to.
	Status Status
	// Attempt is the 1-based attempt number (0 for StatusCached and
	// StatusMemo).
	Attempt int
	// Err carries the failure message for StatusRetry and StatusFailed.
	Err string
}

// Report is the outcome of a sweep.
type Report[T any] struct {
	// Results maps completed cell keys to their values (checkpointed and
	// freshly computed alike).
	Results map[string]T
	// Failed maps cell keys to the error message of their final attempt.
	Failed map[string]string
	// Resumed is how many cells were satisfied from the checkpoint.
	Resumed int
	// Interrupted is true when the sweep stopped early because the parent
	// context was canceled; Results then holds the cells completed so far.
	Interrupted bool
}

// checkpoint is the JSON document persisted at Config.CheckpointPath.
type checkpoint struct {
	Fingerprint string                     `json:"fingerprint"`
	Completed   map[string]json.RawMessage `json:"completed"`
}

// ErrCorruptCheckpoint marks a checkpoint file whose contents are not a
// complete JSON checkpoint document, or hold an entry for one of the
// sweep's cells that does not decode as its result type — typically a
// file truncated by a crash or written by something else entirely. Callers that own the file
// (like the nvmd service) can detect it with errors.Is, quarantine the
// file, and restart the sweep from scratch instead of failing forever.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

func (c Config) validate() error {
	if c.CellTimeout < 0 {
		return errors.New("runner: Config.CellTimeout must be >= 0")
	}
	if c.Retries < 0 {
		return errors.New("runner: Config.Retries must be >= 0")
	}
	if c.CheckpointPath != "" && c.Fingerprint == "" {
		return errors.New("runner: Config.Fingerprint is required with CheckpointPath")
	}
	if c.Parallelism < 0 {
		return errors.New("runner: Config.Parallelism must be >= 0")
	}
	return nil
}

// Run executes the sweep. Cell failures do not abort the sweep — they are
// collected in Report.Failed. Run itself errors only on invalid
// configuration, duplicate cell keys, or checkpoint I/O problems.
func Run[T any](ctx context.Context, cfg Config, cells []Cell[T]) (Report[T], error) {
	rep := Report[T]{
		Results: make(map[string]T, len(cells)),
		Failed:  make(map[string]string),
	}
	if err := cfg.validate(); err != nil {
		return rep, err
	}
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if c.Key == "" {
			return rep, errors.New("runner: cell with empty key")
		}
		if seen[c.Key] {
			return rep, fmt.Errorf("runner: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = true
	}

	ckpt, err := loadCheckpoint(cfg)
	if err != nil {
		return rep, err
	}

	err = runPool(ctx, cfg, cells, ckpt, &rep)
	return rep, err
}

// doneStatus picks the completion event for a successful cell: memo hits
// report StatusMemo, computed cells StatusDone.
func doneStatus(memoHit bool) Status {
	if memoHit {
		return StatusMemo
	}
	return StatusDone
}

// runCell executes one cell through the memo cache when one is
// configured, falling back to the plain retry loop otherwise. memoHit
// reports that the value was served without computing (cache hit or
// singleflight share). The computed path returns the exact value
// c.Run produced — never a marshal/unmarshal round trip of it — so with
// no hits the sweep is byte-for-byte the cache-off sweep; the hit path
// decodes the cached canonical JSON, whose round-trip exactness is the
// same property checkpoint resume already relies on.
func runCell[T any](ctx context.Context, cfg Config, c Cell[T], idx, total int, emit func(Event)) (T, bool, error) {
	if cfg.Cache == nil || c.Fingerprint == "" {
		v, err := runWithRetry(ctx, cfg, c, idx, total, emit)
		return v, false, err
	}
	var computed T
	didCompute := false
	raw, _, err := cfg.Cache.GetOrCompute(ctx, c.Fingerprint, func() ([]byte, error) {
		v, err := runWithRetry(ctx, cfg, c, idx, total, emit)
		if err != nil {
			return nil, err
		}
		buf, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("runner: marshal cell %q for memo: %w", c.Key, err)
		}
		computed, didCompute = v, true
		return buf, nil
	})
	if err != nil {
		var zero T
		return zero, false, err
	}
	if didCompute {
		return computed, false, nil
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		// The entry does not decode as this sweep's result type: the
		// fingerprint addressed a value of a different shape. Poison it
		// (quarantine on disk, drop from memory) and compute normally —
		// a corrupt entry is recomputed, never served.
		cfg.Cache.Discard(c.Fingerprint)
		v2, err2 := runWithRetry(ctx, cfg, c, idx, total, emit)
		if err2 != nil {
			return v2, false, err2
		}
		if buf, merr := json.Marshal(v2); merr == nil {
			// Heal the slot best-effort so later runs hit again.
			_ = cfg.Cache.Put(c.Fingerprint, buf)
		}
		return v2, false, nil
	}
	return v, true, nil
}

// runWithRetry drives one cell through its attempts, reporting state
// changes through emit (which must be safe for the calling goroutine).
func runWithRetry[T any](ctx context.Context, cfg Config, c Cell[T], idx, total int, emit func(Event)) (T, error) {
	var (
		v   T
		err error
	)
	for attempt := 1; attempt <= cfg.Retries+1; attempt++ {
		emit(Event{Key: c.Key, Index: idx, Total: total, Status: StatusStart, Attempt: attempt})
		v, err = runOnce(ctx, cfg, c)
		if err == nil {
			return v, nil
		}
		if ctx.Err() != nil {
			// Parent cancellation: retrying cannot help and would spin.
			return v, err
		}
		if attempt <= cfg.Retries {
			emit(Event{Key: c.Key, Index: idx, Total: total,
				Status: StatusRetry, Attempt: attempt, Err: err.Error()})
		}
	}
	return v, err
}

// runOnce performs a single attempt under the per-cell deadline,
// converting panics into errors.
func runOnce[T any](ctx context.Context, cfg Config, c Cell[T]) (v T, err error) {
	if cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.CellTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: cell %q panicked: %v\n%s", c.Key, r, debug.Stack())
		}
	}()
	return c.Run(ctx)
}

// loadCheckpoint reads the checkpoint file if configured and present. A
// missing file is a fresh start, not an error; a fingerprint mismatch is
// an error, because silently recomputing (or worse, reusing) cells from a
// different sweep would corrupt results.
func loadCheckpoint(cfg Config) (checkpoint, error) {
	ckpt := checkpoint{Completed: make(map[string]json.RawMessage)}
	if cfg.CheckpointPath == "" {
		return ckpt, nil
	}
	data, err := cfg.fs().ReadFile(cfg.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		ckpt.Fingerprint = cfg.Fingerprint
		return ckpt, nil
	}
	if err != nil {
		return ckpt, fmt.Errorf("runner: read checkpoint: %w", err)
	}
	if err := json.Unmarshal(data, &ckpt); err != nil {
		// Truncated or garbage contents (a crash mid-write of a non-atomic
		// writer, a stray file): surface the file name and the sentinel so
		// callers can quarantine it deliberately.
		return ckpt, fmt.Errorf("runner: checkpoint %s is truncated or corrupt (%v): %w",
			cfg.CheckpointPath, err, ErrCorruptCheckpoint)
	}
	if ckpt.Fingerprint != cfg.Fingerprint {
		return ckpt, fmt.Errorf("runner: checkpoint %s belongs to sweep %q, want %q",
			cfg.CheckpointPath, ckpt.Fingerprint, cfg.Fingerprint)
	}
	if ckpt.Completed == nil {
		ckpt.Completed = make(map[string]json.RawMessage)
	}
	return ckpt, nil
}

// saveCheckpoint records one completed cell and durably rewrites the
// checkpoint file through atomicio.WriteFile (temp file, fsync, rename,
// fsync parent directory), so a crash mid-write never leaves a truncated
// checkpoint behind and a completed rename survives power loss.
func saveCheckpoint[T any](cfg Config, ckpt checkpoint, key string, v T) error {
	if cfg.CheckpointPath == "" {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: marshal cell %q: %w", key, err)
	}
	ckpt.Completed[key] = raw
	data, err := json.MarshalIndent(ckpt, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: marshal checkpoint: %w", err)
	}
	if err := atomicio.WriteFile(cfg.fs(), cfg.CheckpointPath, data); err != nil {
		return fmt.Errorf("runner: write checkpoint: %w", err)
	}
	return nil
}
