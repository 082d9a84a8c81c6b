// Command perfbench is the repository's benchmark. It drives the real
// protocol engine (core.Session / core.Task) through its public API in
// closed-loop rounds and reports end-to-end metrics, or, with --trace 1,
// per-layer metrics measured by wrapping the interfaces the session is
// built from. See README.md in this directory for the workloads and
// metrics; run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload verify-2k-k1 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed check exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the result file written under --out: the result plus the
// machine fingerprint, inputs and per-metric sample counts.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    int            `json:"trace"`
	Curve    string         `json:"curve"`
	Machine  machine        `json:"machine"`
	Samples  map[string]int `json:"samples"`
	// Raw holds the end-to-end run's individual set-up, round and
	// time-to-target timings in seconds.
	Raw    map[string][]float64 `json:"raw,omitempty"`
	Errors []string             `json:"errors,omitempty"`
	// Spans and BenchSpans are the traced run's span files.
	Spans      string `json:"spans,omitempty"`
	BenchSpans string `json:"bench_spans,omitempty"`
	Result     result `json:"result"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload to run (verify-2k-p256, verify-2k-k1, train-mlp, plain-256k-tcp)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "how long the timed rounds run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for the result file and the traced run's spans")
	flag.Parse()
	w, err := findWorkload(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &runner{
		w:         w,
		seed:      *seed,
		budget:    time.Duration(*seconds) * time.Second,
		storeRoot: filepath.Join(*out, fmt.Sprintf("store-%d", os.Getpid())),
	}
	defer os.RemoveAll(r.storeRoot)
	rep := report{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Curve: w.curve, Machine: fingerprint(),
	}
	if !w.verifiable {
		rep.Curve = "none"
	}
	ctx := context.Background()
	var metrics map[string]metric
	if *trace == 1 {
		rep.Spans = filepath.Join(*out, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, *seed))
		rep.BenchSpans = filepath.Join(*out, fmt.Sprintf("%s-seed%d.bench-spans.jsonl", w.name, *seed))
		metrics, rep.Samples, err = r.traced(ctx, rep.Spans, rep.BenchSpans)
	} else {
		metrics, rep.Samples, rep.Raw, err = r.endToEnd(ctx)
	}
	if err != nil {
		rep.Errors = append(rep.Errors, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if r.attempted == 0 {
			r.attempted, r.failed = 1, 1
		}
	}
	rep.Result = result{
		Correct:   err == nil && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	if rep.Result.Metrics == nil {
		rep.Result.Metrics = map[string]metric{}
	}
	fmt.Printf("machine: GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s curve=%s seed=%d\n",
		rep.Machine.GOMAXPROCS, rep.Machine.NProc, rep.Machine.CPUModel, rep.Machine.GoVersion,
		rep.Machine.Commit, rep.Curve, rep.Seed)
	printTable(rep)
	file := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if data, merr := json.MarshalIndent(rep, "", "  "); merr == nil {
		if werr := os.WriteFile(file, append(data, '\n'), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write result file:", werr)
		} else {
			fmt.Println("result file:", file)
		}
	}
	line, merr := json.Marshal(rep.Result)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// printTable prints every metric with its unit and sample count.
func printTable(rep report) {
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	if rep.Trace == 1 {
		names = names[:0]
		for _, m := range layerMetrics() {
			names = append(names, m.name)
		}
	} else {
		sort.Strings(names)
	}
	fmt.Printf("%-34s %16s  %-12s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m, ok := rep.Result.Metrics[n]
		if !ok {
			continue
		}
		fmt.Printf("%-34s %16.6g  %-12s %d\n", n, m.Value, m.Unit, rep.Samples[n])
	}
}
