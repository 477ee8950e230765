package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/sanitize"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// table7Scale is the Table-7 program scale of a full run.
const table7Scale = 2

// fig10Interval is the target interrupt interval of Figure 10 and
// Table 7, in cycles.
const fig10Interval = 5000

var (
	table7Designs = []instrument.Design{instrument.CI, instrument.Naive}
	tiers         = []vm.Tier{vm.TierInterpreter, vm.TierCompiled}
)

// table7Bench runs the Table-7 programs uninstrumented, under CI and
// under Naive on both VM tiers, with the repository's own overhead
// method (experiments.MeasureOverhead). The programs are fixed by the
// paper, so this workload ignores the seed.
type table7Bench struct {
	size  size
	scale int
	wls   []*workloads.Workload
	srcs  []*ir.Module
	// ref holds the reference vm.Stats of each (program, design) from
	// the check phase; the timed runs report no instruction counts.
	ref            map[string]vm.Stats
	gapP50, gapP99 float64 // Figure-10 |gap - target| over all CI fires
}

// tierName and designName name tiers and designs in metric names.
func tierName(t vm.Tier) string {
	if t == vm.TierCompiled {
		return "compiled"
	}
	return "interp"
}

func designName(d instrument.Design) string {
	if d == instrument.CI {
		return "ci"
	}
	return "naive"
}

func refKey(wl string, d instrument.Design) string { return wl + "/" + d.String() }

func (b *table7Bench) setup(uint64) error {
	b.scale, b.wls = table7Scale, experiments.AllWorkloads()
	if b.size == smoke {
		b.scale, b.wls = 1, b.wls[:4]
	}
	b.srcs = make([]*ir.Module, len(b.wls))
	for i, wl := range b.wls {
		b.srcs[i] = wl.Build(b.scale)
	}
	// Warm up both tiers on the first Table-7 program.
	prog, err := core.Compile(b.srcs[0], core.WithDesign(instrument.CI),
		core.WithProbeInterval(experiments.ProbeIntervalIR))
	if err != nil {
		return err
	}
	for _, t := range tiers {
		if _, err := prog.Run("main", core.WithTier(t), core.WithInterval(fig10Interval)); err != nil {
			return err
		}
	}
	return nil
}

// check compiles every program under CI and Naive through core, runs
// it on both tiers and demands exact vm.Stats parity, checks the
// instrumented module against its source with sanitize.DiffExec, and
// measures the Figure-10 interval error with recording on.
func (b *table7Bench) check(r *runner) {
	b.ref = make(map[string]vm.Stats)
	var gapErrs []float64
	eng := &engine.Engine{Pool: engine.NewPool(1), Cache: engine.NewCache(0)}
	for i, wl := range b.wls {
		src := b.srcs[i]
		for _, d := range table7Designs {
			var prog *core.Program
			id := r.tr.newID()
			r.op(nil, "", "core", "compile "+refKey(wl.Name, d), "", id, func() (err error) {
				prog, err = core.Compile(src, core.WithDesign(d), core.WithProbeInterval(experiments.ProbeIntervalIR))
				return err
			})
			if prog == nil {
				continue
			}
			var stats [2]vm.Stats
			for ti, t := range tiers {
				r.op(nil, "", "vm", fmt.Sprintf("run %s/%v", refKey(wl.Name, d), t), "", id, func() error {
					res, err := prog.Run("main", core.WithTier(t), core.WithInterval(fig10Interval))
					if err == nil {
						stats[ti] = res.Stats[0]
					}
					return err
				})
			}
			if stats[0] != stats[1] {
				r.fail(fmt.Errorf("tier parity %s: interpreter %+v, compiled %+v", refKey(wl.Name, d), stats[0], stats[1]))
			}
			b.ref[refKey(wl.Name, d)] = stats[0]
			t0 := time.Now()
			r.op(nil, "", "sanitize", "DiffExec "+refKey(wl.Name, d), "", id, func() error {
				return sanitize.DiffExec(src, prog.Mod, d.String(), sanitize.ExecOptions{Args: []int64{0}})
			})
			r.sanitize += time.Since(t0)
		}
		// Figure 10's method: calibrated CI run with interval recording.
		id := r.tr.newID()
		r.op(nil, "", "vm", "accuracy "+wl.Name, "", id, func() error {
			base, err := experiments.BaselineCached(eng, wl, b.scale, 1)
			if err != nil {
				return err
			}
			row, err := experiments.MeasureOverhead(eng, wl, instrument.CI, base, b.scale, 1, fig10Interval, true)
			if err != nil {
				return err
			}
			r.model.add("accuracy %s %d %d %d %d %v", wl.Name, row.Cycles, row.Probes, row.Taken, row.Handler, row.Intervals)
			for _, gap := range row.Intervals {
				gapErrs = append(gapErrs, math.Abs(float64(gap-fig10Interval)))
			}
			return nil
		})
	}
	p50, _ := percentile(gapErrs, 0.5)
	p99, used := percentile(gapErrs, 0.99)
	b.gapP50, b.gapP99 = p50, p99
	r.note("ci_gap_err over %d CI fires%s", len(gapErrs), percentileLabel(0.99, used))
}

// table7Row is one measured run of a pass.
type table7Row struct {
	base experiments.Baseline
	rows [2]experiments.OverheadRow
}

func (b *table7Bench) pass(r *runner, p *pass) {
	rows := make([][]table7Row, len(tiers)) // [tier][program]
	for _, t := range tiers {
		ti := int(t)
		rows[ti] = make([]table7Row, len(b.wls))
		// A fresh engine per tier and pass: sources are built, programs
		// compiled and baselines run again, as `ciexp table7` does.
		eng := &engine.Engine{Pool: engine.NewPool(1), Cache: engine.NewCache(0), Tier: t}
		for i, wl := range b.wls {
			id := r.tr.newID()
			r.op(p, "build", "workloads", "build "+wl.Name, "workloads_build_self_ms", id, func() error {
				experiments.SourceModule(eng, wl, b.scale)
				return nil
			})
			row := &rows[ti][i]
			r.op(p, "run/"+tierName(t)+"/base", "vm", fmt.Sprintf("run %s/base/%v", wl.Name, t), "vm_self_ms", id, func() (err error) {
				row.base, err = experiments.BaselineCached(eng, wl, b.scale, 1)
				return err
			})
			for di, d := range table7Designs {
				id := r.tr.newID()
				opts := append([]core.Option{core.WithDesign(d), core.WithProbeInterval(experiments.ProbeIntervalIR)},
					r.tr.compileHooks(id, false)...)
				r.op(p, "compile", "core", "compile "+refKey(wl.Name, d), "core_self_ms", id, func() error {
					_, err := experiments.CompileCached(eng, wl, b.scale, opts...)
					return err
				})
				r.op(p, "run/"+tierName(t)+"/"+designName(d), "vm", fmt.Sprintf("run %s/%v", refKey(wl.Name, d), t), "vm_self_ms", id, func() (err error) {
					row.rows[di], err = experiments.MeasureOverhead(eng, wl, d, row.base, b.scale, 1, fig10Interval, false)
					return err
				})
			}
		}
	}
	// Tier parity of the measured runs, and the pass's model outputs in
	// Table-7 order.
	h := newModelHash()
	var norms []float64
	for i, wl := range b.wls {
		in, co := rows[vm.TierInterpreter][i], rows[vm.TierCompiled][i]
		if in.base.Cycles != co.base.Cycles || in.base.Instrs != co.base.Instrs {
			r.fail(fmt.Errorf("tier parity %s baseline: %+v vs %+v", wl.Name, in.base, co.base))
		}
		h.add("base %s %d %d", wl.Name, in.base.Cycles, in.base.Instrs)
		p.n["vm_base_instrs"] += float64(in.base.Instrs)
		for di, d := range table7Designs {
			a, c := in.rows[di], co.rows[di]
			if a.Cycles != c.Cycles || a.Probes != c.Probes || a.Taken != c.Taken || a.Handler != c.Handler {
				r.fail(fmt.Errorf("tier parity %s: %+v vs %+v", refKey(wl.Name, d), a, c))
			}
			ref := b.ref[refKey(wl.Name, d)]
			if a.Probes != ref.Probes {
				r.fail(fmt.Errorf("%s: measured run executed %d probes, reference run %d", refKey(wl.Name, d), a.Probes, ref.Probes))
			}
			h.add("%v %s %d %d %d %d", d, wl.Name, a.Cycles, a.Probes, a.Taken, a.Handler)
			key := designName(d)
			p.n["vm_"+key+"_instrs"] += float64(ref.Instrs)
			p.n["vm_"+key+"_probes"] += float64(a.Probes)
			p.n["ciruntime_"+key+"_fires"] += float64(a.Handler)
			if d == instrument.CI {
				norms = append(norms, a.Norm)
			}
		}
	}
	p.n["ci_overhead_pct"] = 100 * (geomean(norms) - 1)
	p.items = float64(len(tiers)) * (p.n["vm_base_instrs"] + p.n["vm_ci_instrs"] + p.n["vm_naive_instrs"])
	p.model = h.sum()
}

func (b *table7Bench) metrics(r *runner, ps []*pass) map[string]float64 {
	out := map[string]float64{
		"ci_gap_err_p50_cycles": b.gapP50,
		"ci_gap_err_p99_cycles": b.gapP99,
	}
	for _, k := range []string{"vm_base_instrs", "vm_ci_instrs", "vm_naive_instrs", "vm_ci_probes", "vm_naive_probes",
		"ciruntime_ci_fires", "ciruntime_naive_fires", "ci_overhead_pct"} {
		out[k] = ps[0].n[k]
	}
	series := make(map[string][]float64)
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	for _, p := range ps {
		var vmTime time.Duration
		for _, t := range tiers {
			tn := tierName(t)
			base := "run/" + tn + "/base"
			baseNs := float64(p.dur[base].Nanoseconds()) / p.n["vm_base_instrs"]
			add("vm_"+tn+"_base_ns_per_instr", baseNs)
			runTime, instrs := p.dur[base], p.n["vm_base_instrs"]
			alloc, ops := p.alloc[base], p.ops[base]
			var probeRunTime time.Duration
			for _, d := range table7Designs {
				dn := designName(d)
				key := "run/" + tn + "/" + dn
				n := p.n["vm_"+dn+"_instrs"]
				ns := float64(p.dur[key].Nanoseconds())
				add("vm_"+tn+"_"+dn+"_ns_per_instr", ns/n)
				// Host time beyond the uninstrumented rate, per executed probe.
				add("vm_"+tn+"_"+dn+"_ns_per_probe", (ns-baseNs*n)/p.n["vm_"+dn+"_probes"])
				probeRunTime += p.dur[key]
				runTime += p.dur[key]
				instrs += n
				alloc += p.alloc[key]
				ops += p.ops[key]
			}
			vmTime += runTime
			add("vm_"+tn+"_mips", instrs/float64(runTime.Microseconds()))
			add("ciruntime_"+tn+"_fires_per_s", (p.n["ciruntime_ci_fires"]+p.n["ciruntime_naive_fires"])/probeRunTime.Seconds())
			add("vm_"+tn+"_alloc_kb_per_run", float64(alloc)/1e3/float64(ops))
		}
		add("vm_share_pct", 100*vmTime.Seconds()/p.wall.Seconds())
	}
	for k, xs := range series {
		out[k] = median(xs)
	}
	return out
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
