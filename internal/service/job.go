// job.go holds the in-memory job record and the documents the API serves
// for it: JobStatus (live progress, partial results) and JobResult (the
// final report-formatted output). JobResult is built purely from the
// sweep's completed cell values — never from run-dependent bookkeeping
// like resume counts or timing — so an interrupted-and-resumed job
// serializes byte-identically to an uninterrupted one.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync" //lint:allow nondeterminism "job records are mutated by HTTP handlers and the worker pool; results are built only from completed cell values"

	"maxwe"
	"maxwe/internal/experiments"
	"maxwe/internal/report"
	"maxwe/internal/runner"
)

// State is a job lifecycle state.
type State string

// Job lifecycle states. Queued and running jobs survive a daemon restart
// (they resume from their checkpoint); done, failed and canceled are
// terminal and persisted.
const (
	// StateQueued means the job waits for a job worker.
	StateQueued State = "queued"
	// StateRunning means the job's sweep is executing.
	StateRunning State = "running"
	// StateDone means the sweep completed and the result is available.
	StateDone State = "done"
	// StateFailed means the sweep infrastructure errored (not a cell
	// failure — failed cells are recorded inside a done result).
	StateFailed State = "failed"
	// StateCanceled means the job was canceled through the API.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the live view of a job served by GET /v1/jobs/{id}.
type JobStatus struct {
	// ID is the job identifier assigned at submission.
	ID string `json:"id"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Spec is the normalized job specification.
	Spec JobSpec `json:"spec"`
	// CellsTotal is the number of sweep cells the job expands to;
	// CellsDone counts completed ones (checkpoint-resumed included) and
	// CellsFailed the ones whose final attempt errored.
	CellsTotal  int `json:"cells_total"`
	CellsDone   int `json:"cells_done"`
	CellsFailed int `json:"cells_failed"`
	// Resumed counts cells satisfied from the checkpoint instead of
	// recomputed, this daemon lifetime.
	Resumed int `json:"resumed"`
	// Error carries the infrastructure failure of a failed job.
	Error string `json:"error,omitempty"`
	// Partial maps completed cell keys to their checkpointed raw values.
	// Populated on request (GET /v1/jobs/{id}?partial=1) from the job's
	// checkpoint file.
	Partial map[string]json.RawMessage `json:"partial,omitempty"`
}

// JobResult is the final output served by GET /v1/jobs/{id}/result. It
// contains the completed rows, the per-cell failures, and the same
// report-formatted renderings cmd/figures prints.
type JobResult struct {
	// ID and Kind identify the job that produced the result.
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Fig7 holds the completed Figure 7 rows in the paper's order (fig7
	// jobs).
	Fig7 []experiments.Fig7Row `json:"fig7,omitempty"`
	// Fig8 holds the completed Figure 8 rows, and Gmeans the per-scheme
	// geometric means over them (fig8 jobs).
	Fig8   []experiments.Fig8Row `json:"fig8,omitempty"`
	Gmeans map[string]float64    `json:"gmeans,omitempty"`
	// Cells maps cell keys to full simulation results (cells jobs).
	Cells map[string]maxwe.Result `json:"cells,omitempty"`
	// Failed maps cell keys to the error message of their final attempt.
	Failed map[string]string `json:"failed,omitempty"`
	// Table and CSV are the report-formatted renderings of the rows.
	Table string `json:"table"`
	CSV   string `json:"csv"`
}

// job is the manager's in-memory record of one submitted job.
type job struct {
	id          string
	spec        JobSpec // normalized
	fingerprint string
	cellsTotal  int
	events      *eventLog

	mu          sync.Mutex
	state       State
	err         string
	cellsDone   int
	cellsFailed int
	resumed     int
	// cancelRequested distinguishes an API cancel (terminal) from a
	// daemon shutdown drain (job re-queues on restart).
	cancelRequested bool
	cancel          context.CancelFunc
	// result holds the marshaled JobResult once the job is done.
	result []byte
}

func newJob(id string, spec JobSpec) *job {
	return &job{
		id:          id,
		spec:        spec,
		fingerprint: spec.fingerprint(),
		cellsTotal:  spec.cellCount(),
		events:      newEventLog(),
		state:       StateQueued,
	}
}

// status snapshots the job for the API.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		CellsTotal:  j.cellsTotal,
		CellsDone:   j.cellsDone,
		CellsFailed: j.cellsFailed,
		Resumed:     j.resumed,
		Error:       j.err,
	}
}

// setState transitions the job and emits a state event; terminal states
// complete the event stream.
func (j *job) setState(s State, errMsg string) {
	j.mu.Lock()
	j.state = s
	j.err = errMsg
	done, total := j.cellsDone, j.cellsTotal
	j.mu.Unlock()
	j.events.append(Event{
		Job: j.id, Type: "state", State: s, Error: errMsg,
		CellsDone: done, CellsTotal: total,
	})
	if s.Terminal() {
		j.events.finish()
	}
}

// onRunnerEvent adapts one sweep progress event into counters, metrics
// and the job's event stream. The runner serializes Progress calls, so no
// extra locking discipline is needed beyond the job mutex.
func (j *job) onRunnerEvent(m *Metrics) func(runner.Event) {
	return func(ev runner.Event) {
		j.mu.Lock()
		switch ev.Status {
		case runner.StatusDone:
			j.cellsDone++
		case runner.StatusCached:
			j.cellsDone++
			j.resumed++
		case runner.StatusMemo:
			// A memo hit completes the cell exactly like a computation —
			// the result and checkpoint bytes are identical — it was just
			// served from the content-addressed cache.
			j.cellsDone++
		case runner.StatusFailed:
			j.cellsFailed++
		}
		done, total := j.cellsDone, j.cellsTotal
		j.mu.Unlock()
		m.onCellEvent(ev)
		j.events.append(Event{
			Job: j.id, Type: "cell", Cell: ev.Key,
			Status: ev.Status.String(), Attempt: ev.Attempt, Error: ev.Err,
			CellsDone: done, CellsTotal: total,
		})
	}
}

// newResult starts the final document for the job's kind from the
// per-cell failures and the rendered table. Everything in it derives from
// cell values alone, so resumed and uninterrupted runs marshal
// byte-identically.
func (j *job) newResult(failed map[string]string, t *report.Table) JobResult {
	res := JobResult{ID: j.id, Kind: j.spec.Kind, Table: t.String(), CSV: t.CSV()}
	if len(failed) > 0 {
		res.Failed = failed
	}
	return res
}

// resultFig7 assembles a fig7 job's rows in the paper's order.
func (j *job) resultFig7(rep runner.Report[experiments.Fig7Row]) JobResult {
	rows := experiments.Fig7FromResults(rep.Results, j.spec.SWRPercents, j.spec.WLs)
	res := j.newResult(rep.Failed, experiments.Fig7Table(rows))
	res.Fig7 = rows
	return res
}

// resultFig8 assembles a fig8 job's rows and geometric means.
func (j *job) resultFig8(rep runner.Report[experiments.Fig8Row]) JobResult {
	rows, gmeans := experiments.Fig8FromResults(rep.Results)
	res := j.newResult(rep.Failed, experiments.Fig8Table(rows, gmeans))
	res.Fig8 = rows
	res.Gmeans = gmeans
	return res
}

// resultCells renders a cells job's per-cell simulation results in key
// order.
func (j *job) resultCells(rep runner.Report[maxwe.Result]) JobResult {
	t := report.NewTable("Custom cells — lifetime per configuration",
		"cell", "normalized lifetime", "user writes", "device writes", "worn lines", "spares used")
	keys := make([]string, 0, len(rep.Results))
	for k := range rep.Results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r := rep.Results[k]
		t.AddRow(k, r.NormalizedLifetime, r.UserWrites, r.DeviceWrites, r.WornLines, r.SparesUsed)
	}
	res := j.newResult(rep.Failed, t)
	res.Cells = rep.Results
	return res
}

// marshalResult produces the canonical bytes of a result document (the
// exact bytes persisted and served).
func marshalResult(res JobResult) ([]byte, error) {
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("service: marshal result for %s: %w", res.ID, err)
	}
	return append(raw, '\n'), nil
}
