// Command perfbench is the wall-clock benchmark of the Unify reproduction.
// It drives one workload in-process for a fixed time, checks the answers,
// and prints every metric with its unit; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// benchmark instrumentation; with -trace 1 the workload runs a second
// time with timing wrappers around the model clients and reads the
// program's phase spans and counters, and the metrics are per layer.
//
// Usage (from the repository root, see README.md):
//
//	bash perfbench/run.sh --workload adhoc_nl --seed 42 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// result is what a workload reports.
type result struct {
	attempted, failed int
	// checks lists every output check that failed.
	checks []string
	m      *metrics
	// digest covers (answer, vtime) of the workload's deterministic
	// query sequence, so answer identity can be compared across commits.
	digest string
	// samples states the sample count behind the latency percentiles.
	samples string
}

type workloadFunc func(seed int64, seconds time.Duration, traced bool) (*result, error)

var workloads = map[string]workloadFunc{
	"adhoc_nl":       runAdhoc,
	"dashboard_http": runDashboard,
	"ingest_usql":    runIngest,
}

func main() {
	name := flag.String("workload", "", "workload to run: adhoc_nl, dashboard_http or ingest_usql")
	seed := flag.Int64("seed", 42, "workload seed (query literals, ingest choices)")
	seconds := flag.Int("seconds", 10, "measured seconds per timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.StringVar(&heapProfile, "memprofile", "", "write a heap profile to this file where heap_mb is measured (after the timed phase, system live)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (adhoc_nl|dashboard_http|ingest_usql), -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
	}

	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s seed=%d workload=%s seconds=%d trace=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *name, *seconds, *trace)
	res, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fatal(err)
	}
	for _, n := range res.m.names {
		v := res.m.values[n]
		fmt.Printf("metric %-40s %14.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Printf("samples %s\n", res.samples)
	fmt.Printf("digest %s\n", res.digest)
	for _, c := range res.checks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.checks) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.m.values,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if len(res.checks) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// heapProfile is the -memprofile path, set once from the flags.
var heapProfile string

// liveHeapMB reports the live heap after full collections, and writes the
// heap profile there when one was asked for. It runs after the timed phase
// with the system still live. The second collection frees what the first
// only moved to the sync.Pool victim caches.
func liveHeapMB() (float64, error) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if heapProfile != "" {
		f, err := os.Create(heapProfile)
		if err != nil {
			return 0, err
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return float64(ms.HeapAlloc) / 1e6, nil
}

// cpuModel reads the processor model name (Linux); "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
