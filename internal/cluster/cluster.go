// Package cluster is the coordinator/worker federation layer that scales
// nvmd sweeps beyond one box. A coordinator owns the sweep: it expands a
// job into cells exactly like a single-node run, hands each cell to one
// of N registered workers as a leased task, and commits the results in
// sweep order through the ordinary internal/runner machinery — so the
// merged result document, event subsequence and checkpoint bytes are
// identical to a single-node run at every worker count. Workers are
// plain nvmd processes in worker mode: they register with capability
// info, long-poll for leases, compute cells (through a local memo cache
// when they have one), and report canonical JSON results back.
//
// Determinism argument, in three parts:
//
//   - every cell re-derives all of its state from the job spec and cell
//     key alone, so *where* it computes cannot change its value (the
//     same property that makes checkpoint resume and memo hits safe);
//   - the coordinator routes remote results through runner.Run, whose
//     single collector commits outcomes strictly in sweep order — the
//     checkpoint file states and final report are the sequential ones;
//   - values travel as the canonical JSON the runner itself would have
//     checkpointed, and JSON round-trips of result types are exact, so
//     a remote cell's committed bytes equal a local cell's.
//
// Failure handling reuses existing machinery rather than inventing new
// state: a worker that dies or stalls simply stops heartbeating, its
// leases expire, and its cells are reassigned to the surviving workers;
// a coordinator that dies restarts the job from its durable checkpoint
// like any interrupted nvmd job. Leasing is plain FIFO: any worker with
// a free slot takes the oldest pending cell. Cache locality is the
// coordinator's job, not the scheduler's — its runner serves every
// repeated cell from its own memo cache before dispatching, so only
// cells no cache has seen ever reach a worker.
//
// Like internal/runner and internal/service, this package is daemon
// plumbing: goroutines, sync and the wall clock are its job, and every
// use is waived line-by-line with a reasoned //lint:allow directive.
// The simulations it schedules remain pure functions of their specs.
package cluster

import (
	"encoding/json"
	"time"
)

// ProtoVersion versions the /v1/cluster wire protocol. A worker built
// against a different protocol is rejected at registration instead of
// failing obscurely mid-sweep.
const ProtoVersion = 1

// Default scheduling parameters, exchanged at registration so workers
// and coordinator agree without extra configuration.
const (
	// DefaultLeaseTimeout bounds how long a leased cell may go without a
	// heartbeat before it is reassigned to another worker.
	DefaultLeaseTimeout = 15 * time.Second
	// DefaultWorkerTTL bounds how long a registered worker may go
	// without any request before it is dropped from the registry.
	DefaultWorkerTTL = 45 * time.Second
	// DefaultLeaseWait is how long a lease request blocks server-side
	// waiting for a task before answering "none".
	DefaultLeaseWait = 5 * time.Second
)

// WorkerInfo is the capability record a worker sends at registration.
type WorkerInfo struct {
	// Name is a free-form label for logs and the workers listing
	// (default: the worker's hostname as reported by the process).
	Name string `json:"name,omitempty"`
	// Slots is how many cells the worker computes concurrently.
	Slots int `json:"slots"`
	// CacheEnabled reports whether the worker runs a local memo cache.
	// nvmd workers run none — the coordinator's cache sits in front of
	// dispatch — so they always send false.
	CacheEnabled bool `json:"cache_enabled"`
	// EngineSchema is the worker's sim.EngineSchemaVersion. The
	// coordinator rejects a mismatch: results from a semantically
	// different engine must never be merged.
	EngineSchema int `json:"engine_schema"`
	// Proto is the worker's ProtoVersion.
	Proto int `json:"proto"`
}

// RegisterRequest is the body of POST /v1/cluster/register.
type RegisterRequest struct {
	Info WorkerInfo `json:"info"`
}

// RegisterResponse assigns the worker its identity and the scheduling
// parameters the coordinator runs with.
type RegisterResponse struct {
	// WorkerID names the worker in every subsequent request.
	WorkerID string `json:"worker_id"`
	// LeaseTimeoutMS is the lease deadline the coordinator enforces; a
	// worker must heartbeat comfortably inside it.
	LeaseTimeoutMS int64 `json:"lease_timeout_ms"`
	// LeaseWaitMS is the server-side long-poll bound for lease requests.
	LeaseWaitMS int64 `json:"lease_wait_ms"`
}

// Task is one cell of a federated sweep, leased to a worker.
type Task struct {
	// ID names the lease; results are reported against it.
	ID string `json:"id"`
	// Job is the coordinator-side job the cell belongs to.
	Job string `json:"job"`
	// Key is the cell key within the sweep (e.g. "fig7/tlsr/90").
	Key string `json:"key"`
	// Fingerprint is the cell's content address for the memo cache
	// (empty for cells that opt out of caching).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Spec is the normalized job specification JSON the worker expands
	// to reconstruct the cell.
	Spec json.RawMessage `json:"spec"`
}

// LeaseRequest is the body of POST /v1/cluster/lease. The request
// long-polls: the coordinator holds it up to its lease-wait bound when
// no task is immediately available.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// ResultRequest is the body of POST /v1/cluster/result: one computed
// cell, as the canonical JSON of its value, or the error that final
// attempt produced.
type ResultRequest struct {
	WorkerID string `json:"worker_id"`
	TaskID   string `json:"task_id"`
	// Value is the canonical JSON of the cell value (nil when Error is
	// set).
	Value json.RawMessage `json:"value,omitempty"`
	// Error carries the compute failure; the coordinator surfaces it as
	// the cell's error exactly as a local failure would be.
	Error string `json:"error,omitempty"`
}

// HeartbeatRequest is the body of POST /v1/cluster/heartbeat: it renews
// the worker's registration and the leases of the listed tasks.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	Tasks    []string `json:"tasks,omitempty"`
}

// CacheGetRequest is the body of POST /v1/cluster/cache/get — the
// peer-fill probe a daemon started with -cache-peer sends on a local
// cache miss.
type CacheGetRequest struct {
	Key string `json:"key"`
}

// CacheGetResponse carries a peer cache hit.
type CacheGetResponse struct {
	Value json.RawMessage `json:"value"`
}

// WorkerStatus is one row of GET /v1/cluster/workers. It deliberately
// carries no wall-clock fields: serialized documents stay free of
// nondeterministic values (the dettaint invariant).
type WorkerStatus struct {
	ID   string     `json:"id"`
	Info WorkerInfo `json:"info"`
	// Leased is how many tasks the worker currently holds.
	Leased int `json:"leased"`
	// Completed counts results this worker reported.
	Completed int64 `json:"completed"`
}

// Stats is the coordinator's counter snapshot, served as
// GET /v1/cluster/stats and folded into /metrics.
type Stats struct {
	// WorkersLive is the current registry population.
	WorkersLive int `json:"workers_live"`
	// TasksPending and TasksLeased gauge the scheduler queues.
	TasksPending int `json:"tasks_pending"`
	TasksLeased  int `json:"tasks_leased"`
	// Dispatched counts cells handed to the scheduler; Completed counts
	// cells that came back (success or cell error).
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
	// Reassigned counts leases that expired (worker dead or stalled)
	// and were requeued for another worker.
	Reassigned int64 `json:"reassigned"`
	// WorkersExpired counts workers dropped for missing heartbeats.
	WorkersExpired int64 `json:"workers_expired"`
	// LateResults counts results reported for tasks no longer leased to
	// that worker (already reassigned, completed or canceled). Late
	// values are still accepted when the task is live — results are
	// content-deterministic, so any worker's answer is the answer.
	LateResults int64 `json:"late_results"`
	// Registered counts registrations accepted over the coordinator's
	// lifetime (re-registrations included).
	Registered int64 `json:"registered"`
}
