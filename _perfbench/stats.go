package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spread printed here is the one the steadiness acceptance uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(j int) float64 {
		// Python: m = n + 1; j-th cut at j*m/4 (1-based order statistics).
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := min(max(int(math.Floor(pos)), 1), n-1)
		frac := pos - float64(k)
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53:     "ext2/ext3/ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	t := int64(st.Type)
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", t)
}

// goStats is a snapshot of the Go runtime counters the go.* metrics use.
type goStats struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNS    uint64
}

// readGoStats samples the allocation and GC counters.
func readGoStats() goStats {
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{
		allocBytes: samples[0].Value.Uint64(),
		gcCycles:   samples[1].Value.Uint64(),
		pauseNS:    ms.PauseTotalNs,
	}
}

// goDelta accumulates runtime counter deltas over the measured rounds.
type goDelta struct {
	alloc, cycles, pause float64
	rounds               int
}

func (g *goDelta) add(before, after goStats) {
	g.alloc += float64(after.allocBytes - before.allocBytes)
	g.cycles += float64(after.gcCycles - before.gcCycles)
	g.pause += float64(after.pauseNS - before.pauseNS)
	g.rounds++
}

// put stores the per-round go.* metrics.
func (g *goDelta) put(m metrics) {
	n := float64(max(g.rounds, 1))
	m.set("go.alloc_mb", g.alloc/n/(1<<20), "MB")
	m.set("go.gc_cycles", g.cycles/n, "count")
	m.set("go.gc_pause_ms", g.pause/n/1e6, "ms")
}

// steadiness runs the workload repeat times in child processes with
// consecutive seeds and prints, per metric, the median, the quartiles,
// the min-max range and the quartile spread as a share of the median.
func steadiness(opts options, traceFlag, repeat int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failedShares []float64
	for i := 0; i < repeat; i++ {
		seed := opts.seed + uint64(i)
		cmd := exec.Command(exe,
			"-workload", opts.workload,
			"-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(traceFlag),
			"-workdir", opts.workdir,
			"-clients", strconv.Itoa(opts.clients),
			"-parallelism", strconv.Itoa(opts.parallelism))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		var last string
		sc := bufio.NewScanner(&stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			if t := strings.TrimSpace(sc.Text()); t != "" {
				last = t
			}
		}
		var res resultLine
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("run %d: parse result line: %w", i, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): output checks failed", i, seed)
		}
		failedShares = append(failedShares, float64(res.Failed)/float64(res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Printf("# run %d seed %d attempted %d failed %d\n", i, seed, res.Attempted, res.Failed)
	}
	fmt.Printf("%-36s %-8s %14s %14s %14s %14s %14s %9s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	summary := map[string]map[string]float64{}
	for _, name := range sortedNames(values) {
		xs := values[name]
		q1, q3 := quartiles(xs)
		med := median(xs)
		lo, hi := quantile(xs, 0), quantile(xs, 1)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Printf("%-36s %-8s %14.6g %14.6g %14.6g %14.6g %14.6g %9.4f\n",
			name, units[name], med, q1, q3, lo, hi, spread)
		summary[name] = map[string]float64{"median": med, "q1": q1, "q3": q3, "min": lo, "max": hi, "spread": spread}
	}
	fmt.Printf("# failed share per run: %v\n", failedShares)
	raw, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// sortedNames returns the metric names in order.
func sortedNames(m map[string][]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
