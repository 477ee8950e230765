package sanitize_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ci/fuzz"
	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// oracleDesigns are the four probe designs the differential oracle
// sweeps (one per placement family: static analysis, cycle-gated,
// CoreDet balance, yield points).
var oracleDesigns = []instrument.Design{
	instrument.CI, instrument.CICycles, instrument.CD, instrument.CnB,
}

// The differential oracle must pass for all four probe designs over at
// least 500 seeded fuzz programs: identical store streams, return
// values and final memory between baseline and instrumented runs.
func TestOracleFourDesignsOver500Programs(t *testing.T) {
	total := 500
	if testing.Short() {
		total = 60
	}
	const chunk = 25
	for lo := 1; lo <= total; lo += chunk {
		lo := lo
		hi := min(lo+chunk-1, total)
		t.Run(fmt.Sprintf("seeds%d-%d", lo, hi), func(t *testing.T) {
			t.Parallel()
			for seed := lo; seed <= hi; seed++ {
				src := fuzz.Generate(uint64(seed), fuzz.Options{
					MaxDepth: 2, MaxStmts: 4, MaxFuncs: 2, WithExterns: seed%5 == 0,
				})
				eo := sanitize.ExecOptions{
					Args:        []int64{int64(seed % 4096)},
					LimitInstrs: 40_000_000,
				}
				base, err := sanitize.Execute(src, eo)
				if err != nil {
					t.Fatalf("seed %d: baseline: %v", seed, err)
				}
				for _, d := range oracleDesigns {
					prog, err := sanitize.CompileChecked(src, sanitize.Options{},
						core.WithDesign(d), core.WithProbeInterval(250))
					if err != nil {
						t.Fatalf("seed %d %v: %v", seed, d, err)
					}
					if err := sanitize.DiffTrace(base, prog.Mod, d.String(), eo); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					}
				}
			}
		})
	}
}

// All seven designs also stay clean under the full static stage checks
// on a smaller sample (the big sweep above covers the four-design
// oracle requirement).
func TestAllDesignsStageChecksClean(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		src := fuzz.Generate(seed, fuzz.Options{MaxDepth: 2, MaxStmts: 4})
		for _, d := range instrument.Designs {
			if _, err := sanitize.CompileChecked(src, sanitize.Options{},
				core.WithDesign(d), core.WithProbeInterval(120)); err != nil {
				t.Errorf("seed %d %v: %v", seed, d, err)
			}
		}
	}
}

// storeProgram has an observable store stream so oracle divergences in
// memory traffic (not just return values) are exercised.
const storeProgram = `
mem 128
func @main(%n) {
entry:
  %b = and %n, 63
  %i = mov 0
  jmp head
head:
  %c = lt %i, %b
  br %c, body, exit
body:
  %v = mul %i, 3
  %a = and %v, 127
  store %a, 0, %v
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`

func TestOracleComparesStoreStreams(t *testing.T) {
	src := ir.MustParse(storeProgram)
	eo := sanitize.ExecOptions{Args: []int64{45}, LimitInstrs: 1_000_000}
	base, err := sanitize.Execute(src, eo)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Stores) == 0 {
		t.Fatal("baseline trace recorded no stores")
	}
	for _, d := range oracleDesigns {
		prog, err := sanitize.CompileChecked(src, sanitize.Options{},
			core.WithDesign(d), core.WithProbeInterval(50))
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if err := sanitize.DiffTrace(base, prog.Mod, d.String(), eo); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
	// A module that stores a different value must produce a *Divergence
	// naming the first bad store.
	bad := src.Clone()
	body := bad.FuncByName("main").BlockByName("body")
	for i := range body.Instrs {
		if body.Instrs[i].Op == ir.OpMul {
			body.Instrs[i].Imm = 5
		}
	}
	err = sanitize.DiffTrace(base, bad, "CI", eo)
	var div *sanitize.Divergence
	if !errors.As(err, &div) {
		t.Fatalf("corrupted module: err = %v, want *Divergence", err)
	}
	if div.Step != 1 || div.Func != "main" || div.Block != "body" {
		t.Errorf("divergence = %+v, want first bad store at main/body step 1", div)
	}
}

// The oracle reports step-budget exhaustion as inconclusive, never as
// a divergence.
func TestOracleInconclusiveOnBudget(t *testing.T) {
	src := ir.MustParse(storeProgram)
	eo := sanitize.ExecOptions{Args: []int64{63}, LimitInstrs: 50}
	_, err := sanitize.Execute(src, eo)
	if !errors.Is(err, sanitize.ErrInconclusive) {
		t.Fatalf("err = %v, want ErrInconclusive", err)
	}
	var div *sanitize.Divergence
	if errors.As(err, &div) {
		t.Fatalf("budget exhaustion misreported as divergence: %v", err)
	}
}
