// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process for a fixed measuring time, checks the workload's
// outputs against properties the method must have, and prints every
// metric by name and unit as the last line of its standard output:
//
//	{"correct": true, "attempted": 144, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up time, sweep
// time, throughput, memory, job latency); with -trace 1 they are the
// per-layer ones, measured by this program's own timing of each layer's
// public functions and counters, and a decomposition report is printed
// before the result line.
//
// With -repeat N the command runs the workload N times, each in its own
// child process and with seeds seed..seed+N-1, and prints the median,
// quartiles and min-max spread of every metric (steadiness mode).
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	workdir     string
	clients     int
	parallelism int
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int64
	e2e               metrics
	layers            metrics
	// report is the decomposition report of a traced run.
	report []string
	// fsInfo names the filesystem of each data and cache directory.
	fsInfo []string
	// latencySamples is how many job latencies the job quantiles cover
	// (none on the sweep workloads, which report no job latency).
	latencySamples int
}

// metrics collects named values with their units.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts options, chk *checker) (*outcome, error){
	"fig78_bpa":  runFig78,
	"unleveled":  runUnleveled,
	"nvmd_mixed": runNvmdMixed,
	"federated":  runFederated,
}

func main() {
	var opts options
	var traceFlag, repeat int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: fig78_bpa, unleveled, nvmd_mixed or federated")
	flag.Uint64Var(&opts.seed, "seed", 1, "seed the workload's inputs are derived from")
	flag.Float64Var(&opts.seconds, "seconds", 20, "how long the timed phase runs; whole rounds are always completed")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&opts.workdir, "workdir", os.TempDir(), "directory for the nvmd data and cache directories")
	flag.IntVar(&opts.clients, "clients", min(2, runtime.NumCPU()), "nvmd client connections and job workers (at most nproc)")
	flag.IntVar(&opts.parallelism, "parallelism", 1, "runner parallelism of every sweep and job (at most nproc)")
	flag.IntVar(&repeat, "repeat", 0, "steadiness mode: run the workload this many times in child processes and summarize")
	flag.Parse()
	opts.trace = traceFlag == 1

	if err := validate(opts, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := pinProcs(opts, repeat); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if repeat > 0 {
		if err := steadiness(opts, traceFlag, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := runOne(opts); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// validate rejects settings the benchmark does not measure: unknown
// workloads, and more client connections or runner workers than the host
// has CPUs, which would measure oversubscription instead of the program.
func validate(opts options, traceFlag int) error {
	if _, ok := workloads[opts.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want fig78_bpa, unleveled, nvmd_mixed or federated)", opts.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if opts.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", opts.seconds)
	}
	nproc := runtime.NumCPU()
	if opts.clients < 1 || opts.clients > nproc {
		return fmt.Errorf("-clients %d outside [1, nproc=%d]", opts.clients, nproc)
	}
	if opts.parallelism < 1 || opts.parallelism > nproc {
		return fmt.Errorf("-parallelism %d outside [1, nproc=%d]", opts.parallelism, nproc)
	}
	return nil
}

// pinProcs gives a sweep workload's process as many Ps as runner workers.
// The sweep workloads run one simulation per worker; with no more Ps the
// collector runs on the simulation's own CPU instead of on the host's
// other shared one, which made rounds both slower and less steady. The
// limit must hold from the start: lowered at run time, the first round's
// peak RSS rose from 13 to 14-19 MB in about one run in four. So the
// process re-executes itself with GOMAXPROCS in its environment.
func pinProcs(opts options, repeat int) error {
	want := strconv.Itoa(opts.parallelism)
	sweep := opts.workload == "fig78_bpa" || opts.workload == "unleveled"
	if !sweep || repeat > 0 || os.Getenv("GOMAXPROCS") == want {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := []string{"GOMAXPROCS=" + want}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return syscall.Exec(exe, os.Args, env)
}

// runOne runs the workload once in this process and prints the header,
// the check failures, the decomposition report and the result line.
func runOne(opts options) error {
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return err
	}
	fmt.Printf("# workload %s seed %d seconds %g trace %v\n", opts.workload, opts.seed, opts.seconds, opts.trace)
	fmt.Printf("# nproc %d GOMAXPROCS %d go %s clients %d parallelism %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), opts.clients, opts.parallelism)
	chk := &checker{}
	out, err := workloads[opts.workload](opts, chk)
	if err != nil {
		return err
	}
	info := out.fsInfo
	if len(info) == 0 {
		info = []string{"work " + opts.workdir + ": " + fsType(opts.workdir)}
	}
	for _, line := range info {
		fmt.Println("# filesystem", line)
	}
	for _, line := range out.report {
		fmt.Println("#", line)
	}
	for _, f := range chk.failures {
		fmt.Println("# CHECK FAILED:", f)
	}
	fmt.Printf("# checks %d passed %d failed\n", chk.passed, len(chk.failures))
	fmt.Printf("# operations attempted %d failed %d\n", out.attempted, out.failed)
	if out.latencySamples > 0 {
		fmt.Printf("# job latency quantiles over %d samples\n", out.latencySamples)
	}
	m := out.e2e
	if opts.trace {
		m = out.layers
	}
	line, err := json.Marshal(resultLine{
		Correct:   len(chk.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checker records the outcome of every output check.
type checker struct {
	passed   int
	failures []string
}

// check records one check: ok, or a failure described by format/args.
func (c *checker) check(ok bool, format string, args ...any) {
	if ok {
		c.passed++
		return
	}
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// scratchDir makes a fresh directory under the work directory; the caller
// removes it.
func scratchDir(opts options, name string) (string, error) {
	return os.MkdirTemp(opts.workdir, fmt.Sprintf("%s-%d-", name, opts.seed))
}

// removeAll deletes a scratch directory, reporting failures on stderr
// only: a leftover directory does not change any measurement.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
	}
}

// writeSpans writes the traced run's spans as JSON next to the scratch
// directories, for offline inspection.
func writeSpans(opts options, spans []span) (string, error) {
	path := filepath.Join(opts.workdir, fmt.Sprintf("spans-%s-%d.json", opts.workload, opts.seed))
	raw, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
