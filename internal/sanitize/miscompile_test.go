package sanitize_test

import (
	"errors"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// diamondSrc is the miscompilation playground: a setup chain feeding a
// diamond whose arms pick different return values, plus a helper
// function so the reducer has something to drop.
const diamondSrc = `
func @main(%n) {
entry:
  %a = add %n, 5
  jmp pre
pre:
  %b = call @helper(%a)
  jmp test
test:
  %c = lt %n, 10
  br %c, small, big
small:
  %r = mov 1
  jmp out
big:
  %r = mov 2
  jmp out
out:
  ret %r
}
func @helper(%x) {
entry:
  %y = mul %x, 3
  ret %y
}
`

// firstBr returns f's first conditional branch block, if any.
func firstBr(f *ir.Func) *ir.Block {
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermBr {
			return b
		}
	}
	return nil
}

// An intentionally-miscompiling pass double that orphans a block must
// be caught by the stage checker at the exact stage it ran.
func TestMiscompileCaughtAtExactStage(t *testing.T) {
	src := ir.MustParse(diamondSrc)
	orphan := func(stage string, f *ir.Func) {
		if stage == "canonicalize" && f.Name == "main" {
			if b := firstBr(f); b != nil {
				b.Term.Else = b.Term.Then
			}
		}
	}
	_, err := sanitize.CompileChecked(src, sanitize.Options{},
		core.WithDesign(instrument.CI), core.WithProbeInterval(100), core.WithFuncStageHook(orphan))
	var se *sanitize.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != "canonicalize" || se.Func != "main" || se.Check != "reachability" {
		t.Errorf("caught at %q/%q check %q, want canonicalize/main reachability (%v)",
			se.Stage, se.Func, se.Check, se)
	}
}

// swapBr is the semantic miscompiler: structurally clean (every static
// invariant holds) but the branch goes the wrong way.
func swapBr(stage string, f *ir.Func) {
	if stage == "canonicalize" && f.Name == "main" {
		if b := firstBr(f); b != nil {
			b.Term.Then, b.Term.Else = b.Term.Else, b.Term.Then
		}
	}
}

// The differential oracle catches the semantically-miscompiling double
// the static checks cannot see, and the reducer shrinks the failing
// program to a minimal (≤3 block, single function) reproducer that
// round-trips through the repro store.
func TestMiscompileDivergenceAndShrink(t *testing.T) {
	src := ir.MustParse(diamondSrc)
	eo := sanitize.ExecOptions{Args: []int64{3}, LimitInstrs: 1_000_000}
	so := sanitize.Options{Exec: true, ExecOptions: eo}
	copts := []core.Option{core.WithDesign(instrument.CI), core.WithProbeInterval(100), core.WithFuncStageHook(swapBr)}

	_, err := sanitize.CompileChecked(src, so, copts...)
	var div *sanitize.Divergence
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want *Divergence", err)
	}
	if div.Stage != "exec" || div.Design != "CI" {
		t.Errorf("divergence = %+v, want stage exec design CI", div)
	}

	stillFails := func(m *ir.Module) bool {
		_, err := sanitize.CompileChecked(m, so, copts...)
		var d *sanitize.Divergence
		return errors.As(err, &d)
	}
	red := sanitize.Reduce(src, "main", stillFails)
	if !stillFails(red.Clone()) {
		t.Fatal("reduced module no longer fails")
	}
	if len(red.Funcs) != 1 {
		t.Errorf("reducer kept %d functions, want 1 (main)\n%s", len(red.Funcs), red)
	}
	mainFn := red.FuncByName("main")
	if mainFn == nil {
		t.Fatalf("reducer lost main:\n%s", red)
	}
	if len(mainFn.Blocks) > 3 {
		t.Errorf("reduced main has %d blocks, want <= 3\n%s", len(mainFn.Blocks), red)
	}

	dir := t.TempDir()
	path, err := sanitize.SaveRepro(dir, "swap-branch", red,
		"shrunk by TestMiscompileDivergenceAndShrink\ndivergence: "+div.Error())
	if err != nil {
		t.Fatal(err)
	}
	repros, err := sanitize.LoadRepros(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 1 || repros[0].Name != "swap-branch" || repros[0].Path != path {
		t.Fatalf("LoadRepros = %+v", repros)
	}
	if repros[0].Mod.String() != red.String() {
		t.Error("reproducer did not round-trip through disk")
	}
}
