package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/sanitize"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// This file binds the sweeps to the parallel experiment engine
// (internal/engine): memoized source modules, baselines and compiled
// programs keyed by (workload, scale, design, interval-config), plus
// the per-cell error collection that keeps one failing cell from
// losing a multi-minute run.

// CellError records one failed sweep cell; the surrounding sweep keeps
// going and reports every failure at the end.
type CellError struct {
	// Cell names the failed unit, e.g. "fig9/barnes".
	Cell string
	// Err is the failure rendered as a string (store- and
	// JSON-friendly).
	Err string
}

func (e CellError) String() string { return fmt.Sprintf("%s: %s", e.Cell, e.Err) }

// cellErrors converts engine.Map error slots into labeled CellErrors,
// preserving input order.
func cellErrors(errs []error, label func(i int) string) []CellError {
	var out []CellError
	for i, err := range errs {
		if err != nil {
			out = append(out, CellError{Cell: label(i), Err: err.Error()})
		}
	}
	return out
}

// renderCellErrors prints a failure footer (nothing on a clean sweep,
// keeping successful output byte-identical to the serial pipeline) and
// returns an aggregate error when any cell failed.
func renderCellErrors(w io.Writer, errs []CellError) error {
	if len(errs) == 0 {
		return nil
	}
	fmt.Fprintf(w, "%d sweep cell(s) failed:\n", len(errs))
	for _, ce := range errs {
		fmt.Fprintf(w, "  %-24s %s\n", ce.Cell, ce.Err)
	}
	return fmt.Errorf("%d sweep cell(s) failed", len(errs))
}

// progEntry is the cached compilation of one (workload, scale, config)
// cell: the program plus a fingerprint guard proving VM runs never
// mutate the shared instrumented module.
type progEntry struct {
	Prog  *core.Program
	Guard *engine.GuardedModule
}

// newMachine builds a VM on the engine's execution tier (interpreter
// with a nil engine).
func newMachine(eng *engine.Engine, m *ir.Module, model *vm.CostModel, threads int) *vm.VM {
	v := vm.New(m, model, threads)
	if eng != nil {
		v.Tier = eng.Tier
	}
	return v
}

// SourceModule returns the workload's uninstrumented module, memoized
// per (workload, scale) and shared read-only across cells (core.Compile
// clones it before instrumenting). With a nil engine it builds fresh.
func SourceModule(eng *engine.Engine, wl *workloads.Workload, scale int) *ir.Module {
	if eng == nil || eng.Cache == nil {
		return wl.Build(scale)
	}
	key := fmt.Sprintf("src/%s/s%d", wl.Name, scale)
	v, _ := eng.Cache.Get(key, func() (any, error) {
		return engine.GuardModule(wl.Build(scale)), nil
	})
	return v.(*engine.GuardedModule).Mod
}

// BaselineCached returns the workload's uninstrumented baseline run,
// memoized per (workload, scale, threads).
func BaselineCached(eng *engine.Engine, wl *workloads.Workload, scale, threads int) (Baseline, error) {
	if eng == nil || eng.Cache == nil {
		return MeasureBaseline(wl, scale, threads)
	}
	key := fmt.Sprintf("base/%s/s%d/t%d", wl.Name, scale, threads)
	v, err := eng.Cache.Get(key, func() (any, error) {
		return runBaseline(eng, SourceModule(eng, wl, scale), wl.Name, threads)
	})
	if err != nil {
		return Baseline{}, err
	}
	return v.(Baseline), nil
}

// compileMaybeChecked compiles src under the resolved options, routing
// through the translation-validation sanitizer when the engine asks
// for it (Engine.SanitizeOnMiss). Sanitized compiles pay for
// stage-by-stage semantic checks; with memoization the cost lands only
// on cache misses.
func compileMaybeChecked(eng *engine.Engine, src *ir.Module, opts []core.Option) (*core.Program, error) {
	if eng != nil && eng.SanitizeOnMiss {
		return sanitize.CompileChecked(src, sanitize.Options{}, opts...)
	}
	return core.Compile(src, opts...)
}

// CompileCached compiles the workload under the given options, memoized
// per (workload, scale, resolved config). The returned program's module
// is shared across cells; callers must treat it as read-only (VM runs
// do — the fingerprint guard in the cache proves it).
func CompileCached(eng *engine.Engine, wl *workloads.Workload, scale int, opts ...core.Option) (*core.Program, error) {
	if eng != nil {
		// Bake the engine's tier into the program (an explicit WithTier
		// among opts still wins — options apply in order).
		opts = append([]core.Option{core.WithTier(eng.Tier)}, opts...)
	}
	cfg := core.ConfigOf(opts...)
	if eng == nil || eng.Cache == nil || cfg.ImportedCosts != nil {
		return compileMaybeChecked(eng, SourceModule(eng, wl, scale), opts)
	}
	key := fmt.Sprintf("prog/%s/s%d/%s", wl.Name, scale, cfg.Key())
	v, err := eng.Cache.Get(key, func() (any, error) {
		prog, err := compileMaybeChecked(eng, SourceModule(eng, wl, scale), opts)
		if err != nil {
			return nil, err
		}
		return progEntry{Prog: prog, Guard: engine.GuardModule(prog.Mod)}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(progEntry).Prog, nil
}

// VerifyCachedModules re-fingerprints every guarded module in the
// engine's cache and returns the first mutation found. Tests run it
// after sweeps to prove that sharing instrumented modules across cells
// (instead of deep-copying per cell) is sound.
func VerifyCachedModules(eng *engine.Engine) error {
	if eng == nil || eng.Cache == nil {
		return nil
	}
	var firstErr error
	eng.Cache.Range(func(key string, val any) {
		var g *engine.GuardedModule
		switch v := val.(type) {
		case *engine.GuardedModule:
			g = v
		case progEntry:
			g = v.Guard
		default:
			return
		}
		if err := g.Verify(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", key, err)
		}
	})
	return firstErr
}

// AllWorkloads returns pointers to the full Table-7 workload list in
// paper order.
func AllWorkloads() []*workloads.Workload {
	sel := make([]*workloads.Workload, len(workloads.All))
	for i := range workloads.All {
		sel[i] = &workloads.All[i]
	}
	return sel
}

// WorkloadsByName resolves names to workloads, failing on unknowns.
func WorkloadsByName(names []string) ([]*workloads.Workload, error) {
	sel := make([]*workloads.Workload, 0, len(names))
	for _, n := range names {
		wl := workloads.ByName(n)
		if wl == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		sel = append(sel, wl)
	}
	return sel, nil
}
