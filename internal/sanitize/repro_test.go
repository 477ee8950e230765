package sanitize_test

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sanitize"
)

// Every reproducer pinned under testdata/repro/ is a shrunk module
// from a past pipeline failure. They must compile cleanly under the
// full stage checks and pass the differential oracle for all four
// designs, forever.
func TestPinnedReprosStayFixed(t *testing.T) {
	repros, err := sanitize.LoadRepros(filepath.Join("testdata", "repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) == 0 {
		t.Fatal("no pinned reproducers found under testdata/repro")
	}
	for _, rp := range repros {
		rp := rp
		t.Run(rp.Name, func(t *testing.T) {
			t.Parallel()
			eo := sanitize.ExecOptions{LimitInstrs: 20_000_000}
			for _, d := range oracleDesigns {
				for _, pi := range []int64{60, 250} {
					if _, err := sanitize.CompileChecked(rp.Mod, sanitize.Options{Exec: true, ExecOptions: eo},
						core.WithDesign(d), core.WithProbeInterval(pi)); err != nil {
						t.Errorf("%v/pi=%d: %v", d, pi, err)
					}
				}
			}
		})
	}
}
