package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own code. Spans
// of one job (or one sweep round) share a group; parent links a span to
// the span that encloses it (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Group   string `json:"group"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory while a traced round runs; nothing is
// written until the run ends. When off, record is a no-op, so untraced
// rounds pay only for the clock reads the end-to-end metrics need anyway.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setOn switches recording for the rounds that follow.
func (r *recorder) setOn(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// newID reserves a span ID so children can name their parent before the
// parent interval is closed.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// record stores a finished span under a reserved (or zero, to allocate)
// ID and returns the ID.
func (r *recorder) record(id, parent int64, name, group string, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return id
	}
	if id == 0 {
		r.next++
		id = r.next
	}
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Group: group,
		StartNS: int64(start.Sub(r.t0)), EndNS: int64(end.Sub(r.t0)),
	})
	return id
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTime is the aggregate of all spans of one name.
type layerTime struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// selfTimes derives each span name's self time: its duration minus the
// durations of its direct children.
func selfTimes(spans []span) []layerTime {
	child := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	agg := map[string]*layerTime{}
	var order []string
	for _, s := range spans {
		lt, ok := agg[s.Name]
		if !ok {
			lt = &layerTime{name: s.Name}
			agg[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.count++
		lt.total += s.dur()
		lt.self += s.dur() - child[s.ID]
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].self > out[k].self })
	return out
}

// spansNamed returns the durations of every span with the given name.
func spansNamed(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// decomposition renders the traced run's report: every span name's self
// time, summed and set against the wall time of the traced rounds times
// the number of concurrent lanes (clients) that produced spans, and the
// tracing overhead as traced minus untraced round time.
func decomposition(spans []span, tracedWall time.Duration, lanes int, traced, untraced []time.Duration) []string {
	lines := []string{fmt.Sprintf("decomposition over %d traced rounds: wall %.1f ms x %d lanes",
		len(traced), ms(tracedWall), lanes)}
	budget := tracedWall * time.Duration(lanes)
	var sum time.Duration
	lines = append(lines, fmt.Sprintf("  %-14s %7s %12s %12s %8s", "span", "count", "total_ms", "self_ms", "share"))
	for _, lt := range selfTimes(spans) {
		sum += lt.self
		lines = append(lines, fmt.Sprintf("  %-14s %7d %12.1f %12.1f %8.4f",
			lt.name, lt.count, ms(lt.total), ms(lt.self), share(lt.self, budget)))
	}
	lines = append(lines, fmt.Sprintf("  self times sum to %.1f ms = %.4f of wall x lanes", ms(sum), share(sum, budget)))
	tm, um := median(durationsMS(traced)), median(durationsMS(untraced))
	lines = append(lines, fmt.Sprintf("tracing overhead: traced round median %.1f ms - untraced %.1f ms = %.1f ms (%.2f%%)",
		tm, um, tm-um, 100*(tm-um)/um))
	return lines
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
