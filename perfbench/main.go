// Command perfbench is the repository's serving benchmark: it drives the
// session-serving stack (internal/session over one internal/transport.Mem,
// with the internal/rstp β and internal/rateless protocols) with seeded
// workloads, checks every output tape, and prints end-to-end metrics, or
// with --trace 1 per-layer metrics from a traced run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload churn-beta-200 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// "correct" is false, and standard error says so, when any output tape
// violates the prefix invariant; the exit code is nonzero only when the
// run cannot be carried out. See NOTES.md for the workloads, the metric
// definitions and the known defects they show.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the serving stack sees; --trace 0 prints
// exactly these.
var e2eMetrics = []metricDef{
	{"transfer_p50_ms", "ms"},
	{"transfer_p99_ms", "ms"},
	{"effort_p50_ticks", "ticks"},
	{"effort_p99_ticks", "ticks"},
	{"goodput_msgs_per_s", "msgs/s"},
	{"cpu_us_per_msg", "us"},
	{"peak_rss_mb", "MB"},
	{"failed_share", "share"},
	{"setup_s", "s"},
}

// overheadOf lists the end-to-end metrics whose traced-minus-untraced
// difference the traced run reports as trace.overhead_<name>.
var overheadOf = []metricDef{
	{"transfer_p50_ms", "ms"},
	{"transfer_p99_ms", "ms"},
	{"cpu_us_per_msg", "us"},
	{"goodput_msgs_per_s", "msgs/s"},
}

// layerMetrics are the traced run's per-layer numbers; --trace 1 prints
// exactly these.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"session.dial_us_p50", "us"},
		{"session.dial_us_p99", "us"},
		{"session.wait_ms_p50", "ms"},
		{"session.wait_ms_p99", "ms"},
		{"session.teardown_us_p99", "us"},
		{"session.step_gap_short_share", "share"},
		{"session.step_gap_long_share", "share"},
		{"session.frames_refused", "count"},
		{"session.frames_late", "count"},
		{"session.inbox_overflow", "count"},
		{"session.deadline_miss_share", "share"},
		{"session.retained_reports", "count"},
		{"session.active_peak", "count"},
		{"transport.send_ns_p50", "ns"},
		{"transport.send_ns_p99", "ns"},
		{"transport.sends_per_write", "count"},
		{"transport.delivery_ticks_p50", "ticks"},
		{"transport.delivery_ticks_p99", "ticks"},
		{"transport.late_share", "share"},
		{"proto.new_pair_us_p50", "us"},
		{"proto.local_step_ns_p50", "ns"},
		{"proto.local_step_ns_p99", "ns"},
		{"proto.recv_apply_ns_p50", "ns"},
		{"proto.recv_apply_ns_p99", "ns"},
		{"proto.steps_per_write", "count"},
		{"rateless.symbols_per_block_mean", "count"},
		{"rateless.symbols_per_block_p99", "count"},
		{"rateless.stale_share", "share"},
		{"rateless.acks_per_block", "count"},
		{"runtime.allocs_per_write", "count"},
		{"runtime.gc_cpu_fraction", "share"},
		{"runtime.goroutines_peak", "count"},
		{"runtime.heap_inuse_mb", "MB"},
		{"generator.lag_p99_ms", "ms"},
	}
	for _, m := range overheadOf {
		ms = append(ms, metricDef{"trace.overhead_" + m.name, m.unit})
	}
	return ms
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		name    = fs.String("workload", "", "workload: churn-beta-200, lossy-rateless-10, stream-beta-12, churn-beta, stream-beta, lossy-rateless, or all")
		seed    = fs.Int64("seed", 1, "seed for every generated input")
		seconds = fs.Int("seconds", 30, "length of the measured window in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(errOut, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(errOut, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	total := resultOut{Correct: true, Metrics: map[string]metricOut{}}
	for _, w := range selected {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, out)
		if err != nil {
			fmt.Fprintf(errOut, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !total.Correct {
		// The verdict is the JSON line's "correct": the run itself was
		// carried out, so it still exits 0.
		fmt.Fprintln(errOut, "perfbench: FAILED: an output tape violated the prefix invariant")
	}
	return 0
}

// runWorkload measures set-up, runs the untraced phase and, when traced,
// a traced phase over the same inputs; it prints every metric by name
// with its unit.
func runWorkload(w workload, seed int64, seconds time.Duration, traced bool, out io.Writer) (resultOut, error) {
	var (
		in     *inputs
		st     *stack
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		runtime.GC() // each build starts from the same collected heap
		t0 := time.Now()
		in = genInputs(w, seed, seconds)
		s, _, err := buildStack(w, seed, in, false)
		if err != nil {
			return resultOut{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if st != nil {
			st.pipe.Close()
		}
		st = s
	}
	fmt.Fprintf(out, "workload %s seed %d: %d sessions of %d bits, input hash %016x\n",
		w.name, seed, len(in.xs), w.bits, in.hash(w, seed))

	base, err := (&phase{w: w, in: in, st: st}).run(seconds)
	st.pipe.Close()
	if err != nil {
		return resultOut{}, err
	}
	base.e2e["setup_s"] = median(setups)
	printCounts(out, "untraced", base)
	printMetrics(out, e2eMetrics, base.e2e)
	res := resultOut{Correct: base.correct, Attempted: base.attempted, Failed: base.failed, Metrics: pick(e2eMetrics, base.e2e)}
	if !traced {
		return res, nil
	}

	st, tr, err := buildStack(w, seed, in, true)
	if err != nil {
		return resultOut{}, err
	}
	tp, err := (&phase{w: w, in: in, st: st, tr: tr}).run(seconds)
	st.pipe.Close()
	if err != nil {
		return resultOut{}, err
	}
	for _, m := range overheadOf {
		tp.layer["trace.overhead_"+m.name] = tp.e2e[m.name] - base.e2e[m.name]
	}
	printCounts(out, "traced", tp)
	printMetrics(out, layerMetrics, tp.layer)
	path := filepath.Join(".bench_build", "trace", w.name+".jsonl")
	stats, n, err := tr.finish(path)
	if err != nil {
		return resultOut{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s (%d over the %d cap dropped); time per span:\n", n, path, tr.dropped.Load(), maxSpans)
	for _, s := range stats {
		fmt.Fprintf(out, "  %s\n", s)
	}
	return resultOut{
		Correct:   base.correct && tp.correct,
		Attempted: base.attempted + tp.attempted,
		Failed:    base.failed + tp.failed,
		Metrics:   pick(layerMetrics, tp.layer),
	}, nil
}

func pick(defs []metricDef, vals map[string]float64) map[string]metricOut {
	m := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		m[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return m
}

func printCounts(out io.Writer, label string, r phaseResult) {
	fmt.Fprintf(out, "%s: %d transfers attempted, %d failed (%d prefix violations, %d incomplete, %d errors), raw failed share %.6f; percentiles are medians over %d sub-windows\n",
		label, r.attempted, r.failed, r.violations, r.incomplete, r.errored, float64(r.failed)/float64(r.attempted), r.windows)
	fmt.Fprintf(out, "%s: frames dropped by the mux over the whole run: %d refused at the session cap, %d late at a tombstone, %d on a full inbox\n",
		label, r.refused, r.late, r.overflow)
}

func printMetrics(out io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}
