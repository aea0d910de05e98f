// handler.go serves the /v1/cluster wire surface over a Coordinator:
// worker lifecycle (register, lease, result, heartbeat), the peer-fill
// cache endpoint with its client (CachePeer), and read-only
// observability (workers, stats). The handler is a plain http.Handler so
// cmd/nvmd composes it onto the same mux as the job API and /metrics.
//
// Every POST answers 400 for a body that is not its request JSON and
// 413 for one past maxBodyBytes. Beyond that, register answers 200 or
// 409 (incompatible worker); lease 200 with a task, 204 for none, 404
// (unknown worker) or 503 (request ended mid-poll); result and
// heartbeat 200 or 404; cache/get 200 (hit) or 404 (miss, or no cache).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxBodyBytes bounds request bodies; specs and cell values are small
// JSON documents, so anything past this is a broken or hostile client.
const maxBodyBytes = 8 << 20

// CacheSource is the read side a cluster handler serves peer-fill
// probes from; *memo.Cache satisfies it structurally. A nil source
// answers every probe with 404 (plain miss at the caller).
type CacheSource interface {
	Get(key string) (val []byte, ok bool)
}

// Handler serves /v1/cluster/* over a Coordinator.
type Handler struct {
	coord *Coordinator
	cache CacheSource
	mux   *http.ServeMux
}

// NewHandler builds the cluster HTTP surface. cache may be nil when the
// process runs without a memo cache; peer-fill probes then always miss.
func NewHandler(coord *Coordinator, cache CacheSource) *Handler {
	h := &Handler{coord: coord, cache: cache, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/cluster/register", h.register)
	h.mux.HandleFunc("POST /v1/cluster/lease", h.lease)
	h.mux.HandleFunc("POST /v1/cluster/result", h.result)
	h.mux.HandleFunc("POST /v1/cluster/heartbeat", h.heartbeat)
	h.mux.HandleFunc("POST /v1/cluster/cache/get", h.cacheGet)
	h.mux.HandleFunc("GET /v1/cluster/workers", h.workers)
	h.mux.HandleFunc("GET /v1/cluster/stats", h.stats)
	return h
}

// CacheHandler serves only the peer-fill probe (POST
// /v1/cluster/cache/get) over cache — for plain daemons that expose
// their memo cache to peers without running a coordinator.
func CacheHandler(cache CacheSource) http.Handler {
	h := &Handler{cache: cache, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/cluster/cache/get", h.cacheGet)
	return h
}

// ServeHTTP dispatches to the cluster mux.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) register(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := h.coord.Register(req.Info)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) lease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	t, err := h.coord.Lease(r.Context(), req.WorkerID)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	if t == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func (h *Handler) result(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := h.coord.Report(req.WorkerID, req.TaskID, req.Value, req.Error); err != nil {
		writeClusterError(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (h *Handler) heartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := h.coord.Heartbeat(req.WorkerID, req.Tasks); err != nil {
		writeClusterError(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (h *Handler) cacheGet(w http.ResponseWriter, r *http.Request) {
	var req CacheGetRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if h.cache == nil || req.Key == "" {
		http.Error(w, "no cache", http.StatusNotFound)
		return
	}
	val, ok := h.cache.Get(req.Key)
	if !ok {
		http.Error(w, "miss", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, CacheGetResponse{Value: json.RawMessage(val)})
}

// CachePeer is the client side of cacheGet: it fills local memo-cache
// misses from another daemon's /v1/cluster/cache/get endpoint (nvmd
// serve -cache-peer) and implements memo.Peer. Failures of any kind are
// plain misses — peering is an optimization, never a dependency.
type CachePeer struct {
	// URL is the peer base URL (any nvmd daemon with a cache, which
	// serves the peer-fill endpoint).
	URL string
	// Client issues the probes (default: 5-second-timeout client).
	Client *http.Client
}

// Fetch probes the peer for key, satisfying memo.Peer.
func (p *CachePeer) Fetch(key string) ([]byte, bool) {
	client := p.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	body, err := json.Marshal(CacheGetRequest{Key: key})
	if err != nil {
		return nil, false
	}
	resp, err := client.Post(p.URL+"/v1/cluster/cache/get", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, false
	}
	var out CacheGetResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, false
	}
	return out.Value, len(out.Value) > 0
}

func (h *Handler) workers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.coord.Workers())
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.coord.Stats())
}

// MetricsText renders the coordinator counters as Prometheus text
// exposition lines, for composition into the daemon's /metrics page.
func MetricsText(s Stats) string {
	var b strings.Builder
	line := func(name string, v int64) {
		fmt.Fprintf(&b, "# TYPE nvmd_cluster_%s gauge\nnvmd_cluster_%s %d\n", name, name, v)
	}
	line("workers_live", int64(s.WorkersLive))
	line("tasks_pending", int64(s.TasksPending))
	line("tasks_leased", int64(s.TasksLeased))
	line("dispatched_total", s.Dispatched)
	line("completed_total", s.Completed)
	line("reassigned_total", s.Reassigned)
	line("workers_expired_total", s.WorkersExpired)
	line("late_results_total", s.LateResults)
	line("registered_total", s.Registered)
	return b.String()
}

// decodeJSON reads a bounded JSON body into v, answering 400 itself on
// failure; the caller proceeds only on true.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if len(body) > maxBodyBytes {
		http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "decode body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON serializes v with a 200-class status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(data)
}

// writeClusterError maps coordinator errors onto wire statuses: unknown
// worker is 404 (the worker's cue to re-register), incompatibility is
// 409, context expiry 503, anything else 500.
func writeClusterError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownWorker):
		code = http.StatusNotFound
	case errors.Is(err, ErrBadWorker):
		code = http.StatusConflict
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}
