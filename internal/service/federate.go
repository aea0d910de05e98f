// federate.go is the service side of sweep federation. Two halves:
//
//   - Coordinator half: federate wraps a job's runner cells so each
//     Run dispatches the cell to the cluster (through the
//     CellDispatcher the daemon was configured with) and decodes the
//     canonical JSON a worker reports. Everything else — ordering,
//     checkpointing, retries, memoization, result assembly — is the
//     unchanged single-node runner machinery, which is precisely why a
//     federated sweep's Result, events and checkpoint are byte-identical
//     to a local run at any worker count.
//
//   - Worker half: ComputeCell reconstructs one cell from the job spec
//     and cell key a lease carries, computes it through the worker's
//     memo cache, and returns the canonical JSON of its value. cmd/nvmd
//     wires it as the cluster worker's compute function.
//
// The CellDispatcher interface is defined here, and internal/cluster's
// Coordinator implements it structurally — so neither package imports
// the other, and cmd/nvmd is the only place both meet.
package service

import (
	"context"
	"encoding/json"
	"fmt"

	"maxwe/internal/experiments"
	"maxwe/internal/memo"
	"maxwe/internal/runner"
)

// CellDispatcher hands one sweep cell to remote compute and blocks
// until its canonical JSON value (or error) is back. Implementations
// must return the exact bytes a local json.Marshal of the cell value
// would produce — cluster workers do, because they marshal the same
// types from the same deterministic computation.
type CellDispatcher interface {
	DispatchCell(ctx context.Context, job string, spec []byte, key, fingerprint string) ([]byte, error)
}

// federate wraps cells so each Run dispatches remotely and decodes the
// reported value. Keys and fingerprints are untouched: checkpoints and
// memo entries cannot tell a federated cell from a local one.
func federate[T any](d CellDispatcher, jobID string, rawSpec []byte, cells []runner.Cell[T]) []runner.Cell[T] {
	out := make([]runner.Cell[T], len(cells))
	for i, c := range cells {
		c := c
		wrapped := c
		wrapped.Run = func(ctx context.Context) (T, error) {
			var v T
			raw, err := d.DispatchCell(ctx, jobID, rawSpec, c.Key, c.Fingerprint)
			if err != nil {
				return v, err
			}
			if err := json.Unmarshal(raw, &v); err != nil {
				return v, fmt.Errorf("service: cell %s: decode federated value: %w", c.Key, err)
			}
			return v, nil
		}
		out[i] = wrapped
	}
	return out
}

// maybeFederate applies federate when the job asked for it and the
// daemon has a dispatcher; otherwise the cells run in-process. The
// asymmetry is deliberate: a federated spec submitted to a plain daemon
// degrades to a normal local sweep with an identical result, which is
// what lets tests and the smoke script compare the two byte-for-byte
// from the same spec document.
func maybeFederate[T any](d CellDispatcher, j *job, cells []runner.Cell[T]) ([]runner.Cell[T], error) {
	if !j.spec.Federated || d == nil {
		return cells, nil
	}
	rawSpec, err := json.Marshal(j.spec)
	if err != nil {
		return nil, fmt.Errorf("service: marshal spec for dispatch: %w", err)
	}
	return federate(d, j.id, rawSpec, cells), nil
}

// ComputeCell computes one federated cell: it normalizes the job spec
// from the task, expands the job's cells exactly as the coordinator
// did, and runs the one matching key through cache (nil computes
// directly, as nvmd workers do: the coordinator's cache already sits in
// front of dispatch). The returned bytes are the canonical JSON of the
// cell value.
func ComputeCell(ctx context.Context, rawSpec []byte, key string, cache *memo.Cache) ([]byte, error) {
	var spec JobSpec
	if err := json.Unmarshal(rawSpec, &spec); err != nil {
		return nil, fmt.Errorf("service: parse federated spec: %w", err)
	}
	norm, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	switch norm.Kind {
	case KindFig7:
		setup, err := norm.Setup.setup()
		if err != nil {
			return nil, err
		}
		return computeOne(ctx, experiments.Fig7Cells(setup, norm.SWRPercents, norm.WLs), key, cache)
	case KindFig8:
		setup, err := norm.Setup.setup()
		if err != nil {
			return nil, err
		}
		return computeOne(ctx, experiments.Fig8Cells(setup), key, cache)
	case KindCells:
		return computeOne(ctx, sweepCells(norm.Cells), key, cache)
	}
	return nil, fmt.Errorf("service: federated spec has unknown kind %q", norm.Kind)
}

// computeOne finds key among cells and computes it, memoized under the
// cell fingerprint when a cache is available.
func computeOne[T any](ctx context.Context, cells []runner.Cell[T], key string, cache *memo.Cache) ([]byte, error) {
	for _, c := range cells {
		if c.Key != key {
			continue
		}
		compute := func() ([]byte, error) {
			v, err := c.Run(ctx)
			if err != nil {
				return nil, err
			}
			raw, err := json.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("service: cell %s: marshal value: %w", key, err)
			}
			return raw, nil
		}
		if cache != nil && c.Fingerprint != "" {
			val, _, err := cache.GetOrCompute(ctx, c.Fingerprint, compute)
			return val, err
		}
		return compute()
	}
	return nil, fmt.Errorf("service: job has no cell %q", key)
}
