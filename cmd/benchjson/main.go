// Command benchjson converts `go test -bench` output (read from stdin)
// into a machine-readable JSON document: one record per benchmark with
// iterations, ns/op and — when -benchmem was passed — B/op and allocs/op,
// plus host metadata (go version, GOOS/GOARCH, NumCPU, GOMAXPROCS) so the
// file records the conditions it was measured under.
//
// `make bench` pipes the full figure/table/runner suite through it;
// `make bench-smoke` uses it as a parse check.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -o bench.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix or the
	// -P GOMAXPROCS suffix go test appends.
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Output is the document written to -o.
type Output struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "-", "output file (- for stdout)")
	flag.Parse()

	benches, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin (did the bench run fail?)")
		os.Exit(1)
	}
	doc := Output{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: benches,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
	} else {
		//lint:allow durablewrite "one-shot report regenerated from the bench log on demand; a torn file just means rerunning the conversion"
		err = os.WriteFile(*out, buf, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(benches), *out)
}

// parse scans go test output for result lines. A result line is
//
//	BenchmarkName-P   iterations   value unit [value unit ...]
//
// interleaved with arbitrary other output (the figure tables the benches
// print, PASS/ok trailers), which is skipped. Unrecognized units are
// ignored so custom b.ReportMetric values do not break parsing.
func parse(sc *bufio.Scanner) ([]Benchmark, error) {
	var benches []Benchmark
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // a table row that happens to start with "Benchmark"
		}
		b := Benchmark{Name: strings.TrimPrefix(f[0], "Benchmark"), Procs: 1, Iterations: iters}
		if i := strings.LastIndex(b.Name, "-"); i >= 0 {
			if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
				b.Name, b.Procs = b.Name[:i], p
			}
		}
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				b.NsPerOp, ok = v, true
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if ok {
			benches = append(benches, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading stdin: %w", err)
	}
	return benches, nil
}
