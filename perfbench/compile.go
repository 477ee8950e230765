package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/ci/fuzz"
	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// sizeClass is one band of the compile corpus: fuzz programs drawn
// with opts and kept when their size falls in [lo, hi] IR instructions,
// until the class holds about budget instructions.
type sizeClass struct {
	opts   fuzz.Options
	lo, hi int
	budget int
}

// sizeClasses run largest first. Each class stops once what is left of
// its budget is under its mid-size, and hands the rest to the next
// class; the smallest class fills to within its lo. So every seed's
// corpus holds the same number of IR instructions, give or take 100,
// while its programs change.
var sizeClasses = []sizeClass{
	{fuzz.Options{MaxDepth: 4, MaxStmts: 10, MaxFuncs: 10}, 5_000, 9_000, 36_000},
	{fuzz.Options{MaxDepth: 4, MaxStmts: 10, MaxFuncs: 6}, 2_000, 5_000, 45_000},
	{fuzz.Options{MaxDepth: 4, MaxStmts: 8, MaxFuncs: 4}, 400, 2_000, 45_000},
	{fuzz.Options{}, 100, 400, 20_000},
}

// compileVariant is one compile configuration of the corpus.
type compileVariant struct {
	name     string
	design   instrument.Design
	optimise bool
}

// compileVariants is every instrument.Designs entry, plus CI with the
// IR optimiser.
func compileVariants() []compileVariant {
	var vs []compileVariant
	for _, d := range instrument.Designs {
		vs = append(vs, compileVariant{d.String(), d, false})
	}
	return append(vs, compileVariant{"CI+opt", instrument.CI, true})
}

// diffSample is how many corpus programs the sanitize oracle checks,
// and diffLimit its per-run step budget.
const (
	diffSample = 6
	diffLimit  = 2_000_000
)

// compileBench compiles a seeded corpus of fuzz programs plus the
// Table-7 sources under every compile variant. No program runs inside
// the timed passes.
type compileBench struct {
	size   size
	corpus []*ir.Module
	names  []string
	sample []int // corpus indices the sanitize oracle checks
}

// irSize counts a module's blocks and IR instructions (terminators
// included).
func irSize(m *ir.Module) (blocks, instrs int) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			blocks++
			instrs += len(b.Instrs) + 1
		}
	}
	return blocks, instrs
}

// drawCorpus draws the fuzz part of the corpus for seed.
func drawCorpus(seed uint64, classes []sizeClass) ([]*ir.Module, []string, error) {
	var mods []*ir.Module
	var names []string
	carry := 0
	for ci, c := range classes {
		rng := rand.New(rand.NewPCG(seed, uint64(ci)))
		stop := (c.lo + c.hi) / 2
		if ci == len(classes)-1 {
			stop = c.lo
		}
		rem := c.budget + carry
		for tries := 0; rem >= stop; tries++ {
			if tries > 10_000 {
				return nil, nil, fmt.Errorf("size class %d: cannot fill %d IR instructions", ci, c.budget)
			}
			s := rng.Uint64()
			m := fuzz.Generate(s, c.opts)
			if _, n := irSize(m); n >= c.lo && n <= min(c.hi, rem) {
				mods = append(mods, m)
				names = append(names, fmt.Sprintf("fuzz/c%d/%016x", ci, s))
				rem -= n
			}
		}
		carry = rem
	}
	return mods, names, nil
}

func (b *compileBench) setup(seed uint64) error {
	classes := sizeClasses
	wls := experiments.AllWorkloads()
	if b.size == smoke {
		classes = []sizeClass{{sizeClasses[2].opts, 400, 2_000, 3_000}, {sizeClasses[3].opts, 100, 400, 2_000}}
		wls = wls[:4]
	}
	mods, names, err := drawCorpus(seed, classes)
	if err != nil {
		return err
	}
	for _, wl := range wls {
		mods = append(mods, wl.Build(1))
		names = append(names, "table7/"+wl.Name)
	}
	b.corpus, b.names = mods, names
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	nfuzz := len(mods) - len(wls)
	b.sample = rng.Perm(nfuzz)[:min(diffSample, nfuzz)]
	// Warm up every variant on the first program.
	for _, v := range compileVariants() {
		if _, err := core.Compile(mods[0], core.WithDesign(v.design), core.WithOptimize(v.optimise),
			core.WithProbeInterval(experiments.ProbeIntervalIR)); err != nil {
			return err
		}
	}
	return nil
}

// check runs sanitize.DiffExec, source against instrumented, on a
// seeded sample of the corpus under every variant. A run that hits the
// step budget is inconclusive, not a failure.
func (b *compileBench) check(r *runner) {
	inconclusive, checked := 0, 0
	for _, i := range b.sample {
		src := b.corpus[i]
		for _, v := range compileVariants() {
			id := r.tr.newID()
			var prog *core.Program
			r.op(nil, "", "core", "compile "+b.names[i]+"/"+v.name, "", id, func() (err error) {
				prog, err = core.Compile(src, core.WithDesign(v.design), core.WithOptimize(v.optimise),
					core.WithProbeInterval(experiments.ProbeIntervalIR))
				return err
			})
			if prog == nil {
				continue
			}
			t0 := time.Now()
			r.op(nil, "", "sanitize", "DiffExec "+b.names[i]+"/"+v.name, "", id, func() error {
				err := sanitize.DiffExec(src, prog.Mod, v.name, sanitize.ExecOptions{LimitInstrs: diffLimit})
				if errors.Is(err, sanitize.ErrInconclusive) {
					inconclusive++
					return nil
				}
				checked++
				return err
			})
			r.sanitize += time.Since(t0)
		}
	}
	r.note("sanitize.DiffExec on %d corpus programs: %d conclusive, %d inconclusive at %d steps",
		len(b.sample), checked, inconclusive, diffLimit)
}

func (b *compileBench) pass(r *runner, p *pass) {
	h := newModelHash()
	for i, src := range b.corpus {
		blocksIn, instrsIn := irSize(src)
		for _, v := range compileVariants() {
			id := r.tr.newID()
			opts := append([]core.Option{core.WithDesign(v.design), core.WithOptimize(v.optimise),
				core.WithProbeInterval(experiments.ProbeIntervalIR)}, r.tr.compileHooks(id, v.optimise)...)
			var prog *core.Program
			d := r.op(p, "compile", "core", "compile "+b.names[i]+"/"+v.name, "core_self_ms", id, func() (err error) {
				prog, err = core.Compile(src, opts...)
				return err
			})
			p.lat = append(p.lat, float64(d.Nanoseconds())/1e3)
			if prog == nil {
				continue
			}
			blocksOut, instrsOut := irSize(prog.Mod)
			p.n["ir_blocks_in"] += float64(blocksIn)
			p.n["ir_instrs_in"] += float64(instrsIn)
			p.n["ir_blocks_out"] += float64(blocksOut)
			p.n["ir_instrs_out"] += float64(instrsOut)
			p.n["instrument_static_probes"] += float64(prog.Instr.Probes)
			p.items += float64(instrsIn)
			h.add("%s %s %d %d %d", b.names[i], v.name, prog.Instr.Probes, blocksOut, instrsOut)
		}
	}
	p.model = h.sum()
}

func (b *compileBench) metrics(r *runner, ps []*pass) map[string]float64 {
	out := make(map[string]float64)
	for _, k := range []string{"ir_blocks_in", "ir_instrs_in", "ir_blocks_out", "ir_instrs_out", "instrument_static_probes"} {
		out[k] = ps[0].n[k]
	}
	var rate, p50s, p99s []float64
	var used99 float64
	for _, p := range ps {
		rate = append(rate, float64(p.ops["compile"])/p.wall.Seconds())
		v50, _ := percentile(p.lat, 0.5)
		v99, used := percentile(p.lat, 0.99)
		p50s, p99s, used99 = append(p50s, v50), append(p99s, v99), used
	}
	out["compile_modules_per_s"] = median(rate)
	out["compile_p50_us"] = median(p50s)
	out["compile_p99_us"] = median(p99s)
	r.note("compile latency over %d compiles per pass (%d modules x %d variants)%s",
		len(ps[0].lat), len(b.corpus), len(compileVariants()), percentileLabel(0.99, used99))
	return out
}
