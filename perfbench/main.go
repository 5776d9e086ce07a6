// Command perfbench is the repository's end-to-end benchmark. It drives
// the program from outside, through its public functions, on three
// workloads, checks every output, and prints each metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 it holds the end-to-end metrics of an untraced run;
// with --trace 1 the per-layer metrics of a traced run. A failed
// correctness check exits 1 and prints no numbers. README.md in this
// directory says why each workload was chosen and which end-to-end
// metric each layer metric should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-avmnist --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// options are the benchmark's command-line arguments.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	spans   string // where a traced run writes its spans
}

// metric is one reported number; samples is the count of raw samples
// it was computed from (0 for counters and ratios of counters).
type metric struct {
	name, unit string
	value      float64
	samples    int
	note       string
}

// result is one workload run. An error returned beside it is a failed
// correctness check.
type result struct {
	attempted, failed int
	metrics           []metric
	// notes are diagnostics printed with the metrics but not part of the
	// JSON: generator lateness, tracing overhead, layer accounting.
	notes []string
}

func (r *result) add(m metric) { r.metrics = append(r.metrics, m) }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer list every metric BENCHMARK.json names, in
// report order, with its unit. Every run prints all of its list: a
// per-layer metric whose layer the workload never reaches reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"p95_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"serve.residual_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"batch.forwards", "count"},
	{"batch.requests_per_forward", "ratio"},
	{"resultcache.hit_ratio", "ratio"},
	{"mmnet.encoder_ms", "ms"},
	{"mmnet.fusion_ms", "ms"},
	{"mmnet.head_ms", "ms"},
	{"gemm.panel_mb_per_forward", "MB"},
	{"engine.scratch_hit_ratio", "ratio"},
	{"workloads.build_ms", "ms"},
	{"data.batch_ms", "ms"},
	{"mmnet.forward_ms", "ms"},
	{"core.reference_forward_ms", "ms"},
	{"ops.gemm_ms", "ms"},
	{"ops.elewise_ms", "ms"},
	{"ops.conv_ms", "ms"},
	{"ops.bnorm_ms", "ms"},
	{"ops.relu_ms", "ms"},
	{"ops.pooling_ms", "ms"},
	{"ops.reduce_ms", "ms"},
	{"ops.other_ms", "ms"},
	{"ops.gflop", "GFLOP"},
	{"ops.computed_mb", "MB"},
	{"core.other_ms", "ms"},
	{"plan.compile_ms", "ms"},
	{"plan.replay_ms", "ms"},
	{"memprof.measure_ms", "ms"},
	{"metrics.report_ms", "ms"},
	{"jobs.idle_share", "ratio"},
	{"trace.kernels_per_cell", "count"},
}

var workloadRuns = map[string]func(options) (*result, error){
	"serve-avmnist":  runServe,
	"eager-mosei-i8": runEager,
	"sweep-analytic": runSweep,
}

var workloadOrder = []string{"serve-avmnist", "eager-mosei-i8", "sweep-analytic"}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()

	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}
	if *workload == "all" {
		os.Exit(runAll(o))
	}
	run, ok := workloadRuns[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *workload, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *workload, o.seed))
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", *workload, err)
		os.Exit(1)
	}
	printResult(*workload, o, res)
}

// printResult writes the human-readable table, then the JSON line.
func printResult(workload string, o options, res *result) {
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	got := map[string]metric{}
	for _, m := range res.metrics {
		got[m.name] = m
	}
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("# %s (%s, seed %d, %v): %d attempted, %d failed\n", workload, mode, o.seed, o.seconds, res.attempted, res.failed)
	out := map[string]any{}
	for _, w := range want {
		m, ok := got[w.name]
		if !ok {
			m = metric{name: w.name, unit: w.unit, note: "n/a: not measured on this workload (README.md)"}
		}
		if m.unit != w.unit {
			panic(fmt.Sprintf("metric %s measured in %s, listed in %s", w.name, m.unit, w.unit))
		}
		n := ""
		if m.samples > 0 {
			n = fmt.Sprintf("n=%d", m.samples)
		}
		fmt.Printf("  %-28s %14.4f %-6s %-8s %s\n", m.name, m.value, m.unit, n, m.note)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own process, so that each reports
// its own peak resident set, and prints their results one after the
// other. It fails if any workload fails.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	status := 0
	combined := map[string]json.RawMessage{}
	for _, w := range workloadOrder {
		cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(int(o.seconds/time.Second)), "--trace", trace)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			status = 1
			continue
		}
		var last string
		sc := bufio.NewScanner(&stdout)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		combined[w] = json.RawMessage(last)
	}
	if status == 0 {
		line, err := json.Marshal(combined)
		if err != nil {
			panic(err)
		}
		fmt.Println(string(line))
	}
	return status
}
