package main

import (
	"bytes"
	"encoding/json"
)

// metricSpec describes one reported metric. Bound applies to
// end-to-end metrics only: the share of the parent's median by which
// the metric may worsen before a change counts as a regression. Moves
// applies to per-layer metrics only: the end-to-end metric, and the
// workload, that a change to the layer should move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// workloadSpec names a workload and records why it was chosen.
type workloadSpec struct {
	Name string
	Why  string
}

const (
	higher = "higher"
	lower  = "lower"
)

// runSeconds is the measured time of one run, as BENCHMARK.json states it.
const runSeconds = 30

var workloadSpecs = []workloadSpec{
	{"table7", "the paper's 28 Table-7 programs under CI and Naive on both VM tiers; VM execution and ciruntime dominate, compile is noise"},
	{"compile", "a seeded fuzz corpus of 100 to 9k IR instructions plus Table-7 sources compiled under every design; no program runs"},
	{"serving", "64-replica fleet soak serially and on a 2-worker pool, then the Shenango overload ramp; no compile or VM work"},
}

// endToEnd are the metrics printed with --trace 0. Every workload
// reports every one of them. An item is a simulated IR instruction
// (table7), an input IR instruction compiled (compile) or an injected
// or offered request (serving).
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "items_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "heap_peak_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

const (
	onTable7  = " on table7"
	onCompile = " on compile"
	onServing = " on serving"
)

// perLayer are the metrics printed with --trace 1. A workload that
// does not exercise a layer reports 0 for it. Host rates and counts
// come from the run's untraced passes, self times from its traced ones.
var perLayer = []metricSpec{
	// vm: simulated instructions per host microsecond, per tier.
	{Name: "vm_interp_mips", Unit: "instr/us", Better: higher, Moves: "items_per_s, wall_s" + onTable7},
	{Name: "vm_compiled_mips", Unit: "instr/us", Better: higher, Moves: "items_per_s, wall_s" + onTable7},
	{Name: "vm_interp_base_ns_per_instr", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7},
	{Name: "vm_interp_ci_ns_per_instr", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7},
	{Name: "vm_interp_naive_ns_per_instr", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7},
	{Name: "vm_compiled_base_ns_per_instr", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7},
	{Name: "vm_compiled_ci_ns_per_instr", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7},
	{Name: "vm_compiled_naive_ns_per_instr", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7},
	{Name: "vm_interp_ci_ns_per_probe", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7},
	{Name: "vm_interp_naive_ns_per_probe", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7 + " (Naive more than CI)"},
	{Name: "vm_compiled_ci_ns_per_probe", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7},
	{Name: "vm_compiled_naive_ns_per_probe", Unit: "ns", Better: lower, Moves: "items_per_s" + onTable7 + " (Naive more than CI)"},
	{Name: "vm_base_instrs", Unit: "count", Better: lower, Moves: "items_per_s" + onTable7 + " (exact count)"},
	{Name: "vm_ci_instrs", Unit: "count", Better: lower, Moves: "items_per_s" + onTable7 + " (exact count)"},
	{Name: "vm_naive_instrs", Unit: "count", Better: lower, Moves: "items_per_s" + onTable7 + " (exact count)"},
	{Name: "vm_ci_probes", Unit: "count", Better: lower, Moves: "wall_s" + onTable7 + " (exact count)"},
	{Name: "vm_naive_probes", Unit: "count", Better: lower, Moves: "wall_s" + onTable7 + " (exact count)"},
	{Name: "vm_interp_alloc_kb_per_run", Unit: "KB", Better: lower, Moves: "heap_peak_mb, wall_s" + onTable7},
	{Name: "vm_compiled_alloc_kb_per_run", Unit: "KB", Better: lower, Moves: "heap_peak_mb, wall_s" + onTable7},
	{Name: "vm_share_pct", Unit: "%", Better: higher, Moves: "wall_s" + onTable7 + " (share of the pass spent in VM runs)"},
	// ci/ciruntime: handler fires.
	{Name: "ciruntime_ci_fires", Unit: "count", Better: lower, Moves: "wall_s" + onTable7 + " (exact count)"},
	{Name: "ciruntime_naive_fires", Unit: "count", Better: lower, Moves: "wall_s" + onTable7 + " (exact count)"},
	{Name: "ciruntime_interp_fires_per_s", Unit: "1/s", Better: higher, Moves: "items_per_s" + onTable7},
	{Name: "ciruntime_compiled_fires_per_s", Unit: "1/s", Better: higher, Moves: "items_per_s" + onTable7},
	// Model clock (deterministic; a host-only change leaves them exact).
	{Name: "ci_overhead_pct", Unit: "%", Better: lower, Moves: "none on host time; a probe-placement change moves it" + onTable7},
	{Name: "ci_gap_err_p50_cycles", Unit: "cycles", Better: lower, Moves: "none on host time; a probe-placement change moves it" + onTable7},
	{Name: "ci_gap_err_p99_cycles", Unit: "cycles", Better: lower, Moves: "none on host time; a probe-placement change moves it" + onTable7},
	{Name: "fleet_goodput_frac", Unit: "frac", Better: higher, Moves: "none on host time; a fleet policy change moves it" + onServing},
	// Compile pipeline: core, opt, cfg, ci/analysis, ci/instrument, ir.
	{Name: "compile_modules_per_s", Unit: "1/s", Better: higher, Moves: "items_per_s, wall_s" + onCompile},
	{Name: "compile_p50_us", Unit: "us", Better: lower, Moves: "items_per_s" + onCompile},
	{Name: "compile_p99_us", Unit: "us", Better: lower, Moves: "wall_s" + onCompile},
	{Name: "core_self_ms", Unit: "ms", Better: lower, Moves: "items_per_s, wall_s" + onCompile},
	{Name: "opt_self_ms", Unit: "ms", Better: lower, Moves: "items_per_s, wall_s" + onCompile},
	{Name: "cfg_canonicalize_self_ms", Unit: "ms", Better: lower, Moves: "items_per_s, wall_s" + onCompile},
	{Name: "analysis_loop_transform_self_ms", Unit: "ms", Better: lower, Moves: "items_per_s, wall_s" + onCompile},
	{Name: "analysis_loop_clone_self_ms", Unit: "ms", Better: lower, Moves: "items_per_s, wall_s" + onCompile},
	{Name: "analysis_cost_self_ms", Unit: "ms", Better: lower, Moves: "items_per_s, wall_s" + onCompile},
	{Name: "instrument_probes_self_ms", Unit: "ms", Better: lower, Moves: "items_per_s, wall_s" + onCompile},
	{Name: "instrument_static_probes", Unit: "count", Better: lower, Moves: "items_per_s" + onCompile + " (exact count); a probe-placement change also moves ci_overhead_pct" + onTable7},
	{Name: "ir_blocks_in", Unit: "count", Better: lower, Moves: "items_per_s" + onCompile + " (exact count)"},
	{Name: "ir_blocks_out", Unit: "count", Better: lower, Moves: "items_per_s" + onCompile + " (exact count)"},
	{Name: "ir_instrs_in", Unit: "count", Better: lower, Moves: "items_per_s" + onCompile + " (exact count)"},
	{Name: "ir_instrs_out", Unit: "count", Better: lower, Moves: "items_per_s" + onCompile + " (exact count)"},
	{Name: "workloads_build_self_ms", Unit: "ms", Better: lower, Moves: "wall_s" + onTable7},
	{Name: "vm_self_ms", Unit: "ms", Better: lower, Moves: "wall_s" + onTable7},
	// Serving stack: fleet, engine, overload, shenango.
	{Name: "fleet_serial_kreq_per_s", Unit: "req/ms", Better: higher, Moves: "items_per_s, wall_s" + onServing},
	{Name: "fleet_pool_kreq_per_s", Unit: "req/ms", Better: higher, Moves: "items_per_s, wall_s" + onServing},
	{Name: "shenango_kreq_per_s", Unit: "req/ms", Better: higher, Moves: "items_per_s, wall_s" + onServing},
	{Name: "fleet_serial_self_ms", Unit: "ms", Better: lower, Moves: "wall_s" + onServing},
	{Name: "fleet_pool_self_ms", Unit: "ms", Better: lower, Moves: "wall_s" + onServing},
	{Name: "fleet_alloc_mb_per_run", Unit: "MB", Better: lower, Moves: "heap_peak_mb, wall_s" + onServing},
	{Name: "fleet_injected", Unit: "count", Better: higher, Moves: "items_per_s" + onServing + " (exact count)"},
	{Name: "fleet_attempts", Unit: "count", Better: lower, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "fleet_retries", Unit: "count", Better: lower, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "fleet_hedges", Unit: "count", Better: lower, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "fleet_migrated", Unit: "count", Better: lower, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "fleet_ejections", Unit: "count", Better: lower, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "engine_pool_speedup", Unit: "x", Better: higher, Moves: "items_per_s, wall_s" + onServing + " (base: fleet_serial_self_ms)"},
	{Name: "overload_fleet_admitted", Unit: "count", Better: higher, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "overload_fleet_rejected", Unit: "count", Better: lower, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "overload_fleet_served_frac", Unit: "frac", Better: higher, Moves: "items_per_s" + onServing},
	{Name: "overload_ramp_admitted", Unit: "count", Better: higher, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "overload_ramp_rejected", Unit: "count", Better: lower, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "overload_ramp_shed", Unit: "count", Better: lower, Moves: "wall_s" + onServing + " (exact count)"},
	{Name: "overload_ramp_served_frac", Unit: "frac", Better: higher, Moves: "items_per_s" + onServing},
	{Name: "shenango_self_ms", Unit: "ms", Better: lower, Moves: "items_per_s, wall_s" + onServing},
	{Name: "shenango_0.8x_ms", Unit: "ms", Better: lower, Moves: "items_per_s" + onServing},
	{Name: "shenango_1.0x_ms", Unit: "ms", Better: lower, Moves: "items_per_s" + onServing},
	{Name: "shenango_1.5x_ms", Unit: "ms", Better: lower, Moves: "items_per_s" + onServing},
	{Name: "shenango_2.0x_ms", Unit: "ms", Better: lower, Moves: "items_per_s" + onServing},
	// The harness itself.
	{Name: "sanitize_ms", Unit: "ms", Better: lower, Moves: "none: correctness checks run outside the timed passes"},
	{Name: "bench_self_ms", Unit: "ms", Better: lower, Moves: "wall_s on every workload (harness time inside a pass)"},
	{Name: "trace_overhead_s", Unit: "s", Better: lower, Moves: "none: traced minus untraced median pass wall time"},
}

// reportMetrics are the workload-specific figures of the human-readable
// report, printed by name before the result line. A workload prints
// "n/a" for the ones it does not exercise.
var reportMetrics = []struct{ Name, Unit, Workload string }{
	{"setup_s", "s", ""},
	{"wall_s", "s", ""},
	{"heap_peak_mb", "MB", ""},
	{"error_frac", "frac", ""},
	{"vm_interp_mips", "instr/us", "table7"},
	{"vm_compiled_mips", "instr/us", "table7"},
	{"ci_overhead_pct", "%", "table7"},
	{"ci_gap_err_p50_cycles", "cycles", "table7"},
	{"ci_gap_err_p99_cycles", "cycles", "table7"},
	{"compile_modules_per_s", "1/s", "compile"},
	{"compile_p50_us", "us", "compile"},
	{"compile_p99_us", "us", "compile"},
	{"fleet_serial_kreq_per_s", "req/ms", "serving"},
	{"fleet_pool_kreq_per_s", "req/ms", "serving"},
	{"shenango_kreq_per_s", "req/ms", "serving"},
	{"fleet_goodput_frac", "frac", "serving"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
