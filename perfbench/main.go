// Command perfbench is the repository's benchmark. It drives the
// packages through their public entry points on one of three
// workloads, checks their outputs with the repository's own oracles,
// and prints the metrics named in BENCHMARK.json, one JSON object on
// the last line of standard output.
//
//	bash perfbench/run.sh --workload table7 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced passes.
// --trace 1 splits the time between untraced and traced passes,
// reports the per-layer metrics, prints the per-layer self-time table
// and writes the spans as Chrome trace_event JSON (--trace-out).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"strings"
	"time"
)

// bench is one workload.
type bench interface {
	// setup builds the inputs for seed and warms up. It runs several
	// times; each run replaces the previous inputs.
	setup(seed uint64) error
	// check runs the correctness oracles and model-only measurements
	// that stay outside the timed passes.
	check(r *runner)
	// pass runs the timed work once.
	pass(r *runner, p *pass)
	// metrics derives the workload's figures from untraced passes.
	metrics(r *runner, ps []*pass) map[string]float64
}

// size scales a workload: full for the benchmark, smoke for tests.
type size int

const (
	full size = iota
	smoke
)

func newBench(name string, sz size) (bench, error) {
	switch name {
	case "table7":
		return &table7Bench{size: sz}, nil
	case "compile":
		return &compileBench{size: sz}, nil
	case "serving":
		return &servingBench{size: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want table7, compile or serving)", name)
}

// pass holds one pass's measurements.
type pass struct {
	wall  time.Duration
	dur   map[string]time.Duration // host time per operation kind
	alloc map[string]uint64        // bytes allocated per operation kind
	ops   map[string]int           // operations per kind
	n     map[string]float64       // deterministic counts and model values
	lat   []float64                // per-operation latency samples, µs
	items float64                  // work items completed
	model uint64                   // model-output fingerprint
	spans [2]int                   // span index range of a traced pass
}

func newPass() *pass {
	return &pass{
		dur:   make(map[string]time.Duration),
		alloc: make(map[string]uint64),
		ops:   make(map[string]int),
		n:     make(map[string]float64),
	}
}

// runner carries one run's tracer, operation accounting and
// model-output fingerprint across a workload's phases.
type runner struct {
	tr        *tracer // nil outside traced phases
	attempted int
	failed    int
	failures  []string
	sanitize  time.Duration // host time of sanitize oracles
	model     *modelHash    // model outputs of the check phase
	notes     []string
}

func newRunner() *runner { return &runner{model: newModelHash()} }

// fail counts one failed operation or oracle mismatch.
func (r *runner) fail(err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

// note records a line for the human-readable report.
func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op runs fn as one operation: it counts it as attempted (and failed
// on error), times it under key in p (when p is non-nil) and wraps it
// in a span when tracing.
func (r *runner) op(p *pass, key, layer, name, metric string, id int64, fn func() error) time.Duration {
	sp := r.tr.begin(layer, name, metric, id)
	a0 := allocBytes()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	a1 := allocBytes()
	r.tr.end(sp)
	r.attempted++
	if p != nil {
		p.dur[key] += d
		p.alloc[key] += a1 - a0
		p.ops[key]++
	}
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", name, err))
	}
	return d
}

// passes runs timed passes until budget is spent and at least
// minPasses have run.
func (r *runner) passes(b bench, budget time.Duration, minPasses int) []*pass {
	var ps []*pass
	start := time.Now()
	for len(ps) < minPasses || time.Since(start) < budget {
		settle()
		p := newPass()
		if r.tr != nil {
			p.spans[0] = len(r.tr.spans)
		}
		sp := r.tr.begin("bench", "pass", "bench_self_ms", r.tr.newID())
		t0 := time.Now()
		b.pass(r, p)
		p.wall = time.Since(t0)
		r.tr.end(sp)
		if r.tr != nil {
			p.spans[1] = len(r.tr.spans)
		}
		ps = append(ps, p)
	}
	for i, p := range ps[1:] {
		if p.model != ps[0].model {
			r.fail(fmt.Errorf("model outputs of pass %d differ from pass 0: %016x != %016x", i+1, p.model, ps[0].model))
		}
	}
	return ps
}

// heapGCPercent is the collector setting of the heap pass: garbage
// stays within 5% of the live heap, so the sampled peak tracks the live
// set rather than when the collector happened to run.
const heapGCPercent = 5

// heapPass runs one extra, untimed pass with a tight collector and
// returns its peak heap in bytes. Its model outputs must match ref's.
func (r *runner) heapPass(b bench, ref *pass) uint64 {
	old := debug.SetGCPercent(heapGCPercent)
	defer debug.SetGCPercent(old)
	settle()
	p := newPass()
	h := startHeapSampler(time.Millisecond)
	b.pass(r, p)
	peak := h.Stop()
	if p.model != ref.model {
		r.fail(fmt.Errorf("model outputs of the heap pass differ from pass 0: %016x != %016x", p.model, ref.model))
	}
	return peak
}

// options configures one benchmark run.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	traceOut  string
	size      size
	minPasses int
}

// result is the machine-readable last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const setupReps = 5

// runBench runs one workload, writes the human-readable report to w and
// returns the result line.
func runBench(w io.Writer, o options) (result, error) {
	b, err := newBench(o.workload, o.size)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "host: %s\n", hostFingerprint())

	var setups []float64
	for range setupReps {
		settle()
		t0 := time.Now()
		if err := b.setup(o.seed); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	r := newRunner()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	r.tr = tr
	b.check(r)
	r.tr = nil

	budget := time.Duration(o.seconds) * time.Second
	if o.trace {
		budget /= 2
	}
	plain := r.passes(b, budget, o.minPasses)
	var traced []*pass
	if o.trace {
		r.tr = tr
		traced = r.passes(b, budget, o.minPasses)
		r.tr = nil
	}

	heap := r.heapPass(b, plain[0])

	walls := make([]float64, len(plain))
	rates := make([]float64, len(plain))
	for i, p := range plain {
		walls[i] = p.wall.Seconds()
		rates[i] = p.items / p.wall.Seconds()
	}
	wl := b.metrics(r, plain)
	values := map[string]float64{
		"setup_s":      median(setups),
		"wall_s":       median(walls),
		"items_per_s":  median(rates),
		"heap_peak_mb": float64(heap) / 1e6,
	}
	for k, v := range wl {
		values[k] = v
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}

	fmt.Fprintf(w, "passes: %d untraced", len(plain))
	if o.trace {
		fmt.Fprintf(w, ", %d traced", len(traced))
	}
	fmt.Fprintf(w, "; setup runs: %d\n", len(setups))
	fmt.Fprintf(w, "pass wall_s:")
	for _, x := range walls {
		fmt.Fprintf(w, " %.4f", x)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "model_fingerprint: %016x\n", modelFingerprint(r, plain))
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, m := range reportMetrics {
		v, ok := values[m.Name]
		if m.Name == "error_frac" {
			v, ok = errFrac, true
		}
		if m.Workload != "" && m.Workload != o.workload {
			ok = false
		}
		if ok {
			fmt.Fprintf(w, "metric %-24s %14.6g %s\n", m.Name, v, m.Unit)
		} else {
			fmt.Fprintf(w, "metric %-24s %14s %s (not exercised by %s)\n", m.Name, "n/a", m.Unit, o.workload)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}

	res := result{
		Correct:   r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    min(r.failed, max(r.attempted, 1)),
		Metrics:   make(map[string]metricValue),
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
		layerMetrics(w, r, tr, plain, traced, values)
		if err := tr.writeChrome(o.traceOut); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(w, "trace: %d spans written to %s\n", len(tr.spans), o.traceOut)
	}
	for _, m := range specs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	return res, nil
}

// layerMetrics fills the traced run's self-time metrics into values and
// prints the per-layer table.
func layerMetrics(w io.Writer, r *runner, tr *tracer, plain, traced []*pass, values map[string]float64) {
	selfMs := make(map[string][]float64)
	counts := make(map[string]int)
	layers := make(map[string]string)
	for _, p := range traced {
		self := tr.selfTimes(p.spans[0], p.spans[1])
		for _, m := range perLayer {
			if strings.HasSuffix(m.Name, "_self_ms") {
				selfMs[m.Name] = append(selfMs[m.Name], float64(self[m.Name].Nanoseconds())/1e6)
			}
		}
		for k, c := range tr.spanCounts(p.spans[0], p.spans[1]) {
			counts[k] += c
		}
	}
	for _, s := range tr.spans {
		if s.metric != "" {
			layers[s.metric] = s.layer
		}
	}
	var rows []layerRow
	for name, xs := range selfMs {
		values[name] = median(xs)
		if counts[name] > 0 {
			rows = append(rows, layerRow{
				metric: name, layer: layers[name],
				self:  time.Duration(median(xs) * 1e6),
				count: counts[name] / len(traced),
			})
		}
	}
	wallOf := func(ps []*pass) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = p.wall.Seconds()
		}
		return median(xs)
	}
	tracedWall, plainWall := wallOf(traced), wallOf(plain)
	values["trace_overhead_s"] = tracedWall - plainWall
	values["sanitize_ms"] = float64(r.sanitize.Nanoseconds()) / 1e6
	fmt.Fprintln(w, "per-layer self time (median over traced passes):")
	printLayerTable(w, rows, time.Duration(tracedWall*float64(time.Second)), []string{
		fmt.Sprintf("traced pass %.4fs, untraced pass %.4fs: tracing overhead %+.4fs (%+.2f%%)",
			tracedWall, plainWall, tracedWall-plainWall, 100*(tracedWall-plainWall)/plainWall),
		fmt.Sprintf("sanitize oracles (outside the timed passes): %s", r.sanitize.Round(time.Microsecond)),
	})
	fmt.Fprintln(w, "per-layer metrics, and what each should move:")
	for _, m := range perLayer {
		fmt.Fprintf(w, "layer %-32s %14.6g %-8s -> %s\n", m.Name, values[m.Name], m.Unit, m.Moves)
	}
}

// modelFingerprint combines the check-phase model outputs with the
// first pass's (every pass must agree).
func modelFingerprint(r *runner, ps []*pass) uint64 {
	h := newModelHash()
	h.add("%016x", r.model.sum())
	if len(ps) > 0 {
		h.add("%016x", ps[0].model)
	}
	return h.sum()
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: table7, compile or serving")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "measured time of the run, in seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace_event output of --trace 1 (default .bench_build/trace-<workload>-<seed>.json)")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		out, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stdout.Write(out)
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	o.minPasses = 3
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.json", o.workload, o.seed)
	}
	res, err := runBench(stdout, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness checks failed")
		return 1
	}
	return 0
}
