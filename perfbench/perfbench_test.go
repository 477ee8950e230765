package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n       int
		p       float64
		want    float64
		wantUse float64
	}{
		{n: 1000, p: 0.99, want: 990, wantUse: 0.99}, // exactly 10 samples beyond
		{n: 2000, p: 0.99, want: 1980, wantUse: 0.99},
		{n: 500, p: 0.99, want: 490, wantUse: 0.98}, // falls back to keep 10 beyond
		{n: 100, p: 0.5, want: 50, wantUse: 0.5},
		{n: 11, p: 0.99, want: 1, wantUse: 1.0 / 11},
		{n: 10, p: 0.99, want: 5.5, wantUse: 0.5}, // no quantile qualifies: median
	}
	for _, c := range cases {
		got, used := percentile(ramp(c.n), c.p)
		if got != c.want || used != c.wantUse {
			t.Errorf("percentile(n=%d, p=%g) = %g at %g, want %g at %g", c.n, c.p, got, used, c.want, c.wantUse)
		}
		if beyond := c.n - int(got); c.wantUse != 0.5 && beyond < minBeyond {
			t.Errorf("n=%d p=%g: only %d samples beyond the reported value", c.n, c.p, beyond)
		}
		label := percentileLabel(c.p, used)
		if (used == c.p) != (label == "") {
			t.Errorf("n=%d p=%g: label %q does not match fallback %g", c.n, c.p, label, used)
		}
	}
	if v, _ := percentile(nil, 0.99); v != 0 {
		t.Errorf("percentile of no samples = %g, want 0", v)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// pass [0,100) > compile [10,50) > stage [20,30); run [60,90).
	tr.spans = []span{
		{metric: "bench_self_ms", parent: -1, start: 0, end: ms(100)},
		{metric: "core_self_ms", parent: 0, start: ms(10), end: ms(50)},
		{metric: "cfg_canonicalize_self_ms", parent: 1, start: ms(20), end: ms(30)},
		{metric: "vm_self_ms", parent: 0, start: ms(60), end: ms(90)},
	}
	got := tr.selfTimes(0, len(tr.spans))
	want := map[string]time.Duration{
		"bench_self_ms":            ms(30),
		"core_self_ms":             ms(30),
		"cfg_canonicalize_self_ms": ms(10),
		"vm_self_ms":               ms(30),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestBenchmarkJSONUpToDate(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	seen := make(map[string]bool)
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", m.Name)
		}
	}
}

// modelOf sets b up for seed and returns the model fingerprint of one
// pass together with the check phase's.
func modelOf(t *testing.T, b bench, seed uint64) uint64 {
	t.Helper()
	if err := b.setup(seed); err != nil {
		t.Fatal(err)
	}
	r := newRunner()
	b.check(r)
	ps := r.passes(b, 0, 1)
	if r.failed != 0 {
		t.Fatalf("seed %d: %d failures: %v", seed, r.failed, r.failures)
	}
	return modelFingerprint(r, ps)
}

func TestSeedPlumbing(t *testing.T) {
	t.Run("compile", func(t *testing.T) {
		a, b, c := &compileBench{size: smoke}, &compileBench{size: smoke}, &compileBench{size: smoke}
		fa, fb, fc := modelOf(t, a, 7), modelOf(t, b, 7), modelOf(t, c, 8)
		if !slices.Equal(a.names, b.names) {
			t.Fatalf("seed 7 drew two different corpora")
		}
		for i := range a.corpus {
			if a.corpus[i].String() != b.corpus[i].String() {
				t.Fatalf("seed 7: corpus module %s differs between setups", a.names[i])
			}
		}
		if fa != fb {
			t.Errorf("seed 7: model fingerprints differ: %016x != %016x", fa, fb)
		}
		if slices.Equal(a.names, c.names) || fa == fc {
			t.Errorf("seeds 7 and 8 drew the same corpus")
		}
	})
	t.Run("serving", func(t *testing.T) {
		fa := modelOf(t, &servingBench{size: smoke}, 7)
		fb := modelOf(t, &servingBench{size: smoke}, 7)
		fc := modelOf(t, &servingBench{size: smoke}, 8)
		if fa != fb {
			t.Errorf("seed 7: model fingerprints differ: %016x != %016x", fa, fb)
		}
		if fa == fc {
			t.Errorf("seeds 7 and 8 gave the same fleet and ramp outputs")
		}
	})
	t.Run("table7", func(t *testing.T) {
		fa, fc := modelOf(t, &table7Bench{size: smoke}, 7), modelOf(t, &table7Bench{size: smoke}, 8)
		if fa != fc {
			t.Errorf("the Table-7 model outputs depend on the seed: %016x != %016x", fa, fc)
		}
	})
}

func TestSmoke(t *testing.T) {
	for _, name := range []string{"table7", "compile", "serving"} {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "trace.json")
				var out bytes.Buffer
				res, err := runBench(&out, options{workload: name, seed: 3, trace: traced, traceOut: traceOut,
					size: smoke, minPasses: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v", m.Name, v)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, v.Value)
					}
				}
				for _, m := range reportMetrics {
					if !strings.Contains(out.String(), "metric "+m.Name+" ") {
						t.Errorf("report does not print %s", m.Name)
					}
				}
				if !traced {
					return
				}
				raw, err := os.ReadFile(traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []struct {
						Name string         `json:"name"`
						Ph   string         `json:"ph"`
						Args map[string]any `json:"args"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatalf("trace is not JSON: %v", err)
				}
				if len(doc.TraceEvents) == 0 {
					t.Fatal("trace has no events")
				}
				self := map[string][]string{
					"table7":  {"vm_self_ms", "core_self_ms", "cfg_canonicalize_self_ms", "instrument_probes_self_ms", "workloads_build_self_ms"},
					"compile": {"core_self_ms", "opt_self_ms", "cfg_canonicalize_self_ms", "analysis_cost_self_ms", "instrument_probes_self_ms"},
					"serving": {"fleet_serial_self_ms", "fleet_pool_self_ms", "shenango_self_ms"},
				}[name]
				for _, m := range self {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("traced %s: %s = %g, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			})
		}
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"--workload", "nope", "--seconds", "0"}, &out, &errOut); code == 0 {
		t.Errorf("unknown workload: exit 0")
	}
	if code := cli([]string{"--workload", "serving", "--trace", "2"}, &out, &errOut); code == 0 {
		t.Errorf("--trace 2: exit 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("a failed run printed a result line: %s", out.String())
	}
}
