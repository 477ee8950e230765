package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/sanitize"
)

// The fuzz harness's differential tests above compare return values;
// this wires in the full translation-validation oracle: stage-by-stage
// semantic checks during compilation plus store-stream/return/memory
// comparison of baseline vs instrumented execution.
func TestOracleValidatesGeneratedPrograms(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	designs := []instrument.Design{instrument.CI, instrument.CICycles, instrument.CD, instrument.CnB}
	for seed := 1; seed <= seeds; seed++ {
		seed := uint64(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := Generate(seed, Options{MaxDepth: 2, MaxStmts: 4, WithExterns: seed%3 == 0})
			eo := sanitize.ExecOptions{
				Args:        []int64{int64(seed % 4096)},
				LimitInstrs: 40_000_000,
			}
			for _, d := range designs {
				if _, err := sanitize.CompileChecked(src, sanitize.Options{Exec: true, ExecOptions: eo},
					core.WithDesign(d), core.WithProbeInterval(200)); err != nil {
					t.Errorf("%v: %v", d, err)
				}
			}
		})
	}
}
