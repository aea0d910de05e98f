package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseExtractsResultLines(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkFig7CellBatched     	     226	   5266036 ns/op",
		"BenchmarkRunnerScaling-4     	     100	   2500000 ns/op	 128 B/op	       2 allocs/op",
		"Benchmark results table: not a result line",
		"PASS",
	}, "\n")
	benches, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(benches), benches)
	}
	if b := benches[0]; b.Name != "Fig7CellBatched" || b.Procs != 1 || b.NsPerOp != 5266036 {
		t.Errorf("first = %+v", b)
	}
	if b := benches[1]; b.Name != "RunnerScaling" || b.Procs != 4 || b.NsPerOp != 2.5e6 || b.BytesPerOp != 128 || b.AllocsPerOp != 2 {
		t.Errorf("second = %+v", b)
	}
}
