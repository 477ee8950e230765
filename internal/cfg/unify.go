package cfg

import "repro/internal/ir"

// UnifyReturns rewrites f so it has exactly one return block: every
// TermRet block instead moves its value into a shared register and
// jumps to a fresh unified exit. Single-entry single-exit functions are
// what the container rules of the CI analysis reduce completely, so
// this runs first in the analysis's canonicalization. Returns true if
// f changed.
func UnifyReturns(f *ir.Func) bool {
	var rets []*ir.Block
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermRet {
			rets = append(rets, b)
		}
	}
	if len(rets) <= 1 {
		return false
	}
	hasVal := false
	for _, b := range rets {
		if b.Term.Val != ir.NoReg {
			hasVal = true
			break
		}
	}
	retReg := ir.NoReg
	if hasVal {
		retReg = f.NewReg()
	}
	exit := f.NewBlock("ret.unified")
	exit.Term = ir.Terminator{Kind: ir.TermRet, Val: retReg, Cond: ir.NoReg}
	for _, b := range rets {
		if hasVal && b.Term.Val != ir.NoReg {
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpMov, Dst: retReg, A: b.Term.Val, B: ir.NoReg})
		}
		b.Term = ir.Terminator{Kind: ir.TermJmp, Then: exit, Cond: ir.NoReg, Val: ir.NoReg}
	}
	f.Reindex()
	return true
}
