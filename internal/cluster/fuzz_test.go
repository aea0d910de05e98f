package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzRoutes are the POST endpoints of the cluster surface, with the
// statuses handler.go documents for each.
var fuzzRoutes = []struct {
	path string
	ok   []int
}{
	{"/v1/cluster/register", []int{http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge}},
	{"/v1/cluster/lease", []int{http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge}},
	{"/v1/cluster/result", []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge}},
	{"/v1/cluster/heartbeat", []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge}},
	{"/v1/cluster/cache/get", []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge}},
}

// FuzzClusterHandler posts arbitrary bytes to every worker-facing
// endpoint of a coordinator that has one registered worker (w-000001),
// one pending task (t-000001) and a cache holding one key. The handler
// must never panic and must answer only the statuses handler.go
// documents; a 200 lease must carry a decodable task.
func FuzzClusterHandler(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"info":{"slots":2,"engine_schema":7,"proto":1}}`},
		{0, `{"info":{"slots":-3,"engine_schema":8,"proto":1}}`},
		{1, `{"worker_id":"w-000001"}`},
		{1, `{"worker_id":"w-404"}`},
		{2, `{"worker_id":"w-000001","task_id":"t-000001","value":{"cell":"cell"}}`},
		{2, `{"worker_id":"w-000001","task_id":"t-000001","error":"boom"}`},
		{2, `{"worker_id":"w-000001","task_id":"t-999999","value":null}`},
		{3, `{"worker_id":"w-000001","tasks":["t-000001","t-000002"]}`},
		{4, `{"key":"cells/v1/abc"}`},
		{4, `{"key":""}`},
		{1, `[`},
		{3, `null`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := fuzzRoutes[int(route)%len(fuzzRoutes)]
		c := NewCoordinator(Config{
			LeaseWait:    time.Millisecond,
			EngineSchema: 7,
			Now:          newFakeClock().Now,
		})
		if _, err := c.Register(testInfo()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		dispatched := make(chan struct{})
		go func() {
			defer close(dispatched)
			_, _ = c.DispatchCell(ctx, "job-1", []byte(`{}`), "cell", "fp-cell")
		}()
		defer func() {
			cancel()
			<-dispatched
		}()
		for c.Stats().Dispatched == 0 {
			time.Sleep(10 * time.Microsecond)
		}

		h := NewHandler(c, memCache{"cells/v1/abc": `{"x":1}`})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(body)))
		documented := false
		for _, code := range r.ok {
			documented = documented || rec.Code == code
		}
		if !documented {
			t.Fatalf("POST %s %q answered %d: %s", r.path, body, rec.Code, rec.Body)
		}
		if r.path == "/v1/cluster/lease" && rec.Code == http.StatusOK {
			var task Task
			if err := json.Unmarshal(rec.Body.Bytes(), &task); err != nil || task.ID == "" {
				t.Fatalf("lease answered 200 with %q (decode err %v)", rec.Body, err)
			}
		}
	})
}
