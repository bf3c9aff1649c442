package vm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"codephage/internal/bitvec"
	"codephage/internal/ir"
)

// runBinOp executes a single ALU instruction on the VM.
func runBinOp(op ir.Op, w ir.Width, a, b uint64) (val uint64, trapped bool) {
	f := &ir.Function{
		Name: "main", NumRegs: 4, FrameSize: 0, RetW: ir.W64,
		Code: []ir.Instr{
			{Op: ir.ConstOp, W: ir.W64, Dst: 0, Imm: a},
			{Op: ir.ConstOp, W: ir.W64, Dst: 1, Imm: b},
			{Op: op, W: w, Dst: 2, A: 0, B: 1},
			{Op: ir.CallB, Builtin: ir.BOut, Dst: 3, Args: []ir.Reg{2}},
			{Op: ir.Ret, A: 2},
		},
	}
	mod := &ir.Module{Name: "alu", Funcs: []*ir.Function{f}, Entry: 0}
	r := New(mod, nil).Run()
	if r.Trap != nil {
		return 0, true
	}
	return r.Output[0], false
}

// bitvecOp mirrors the instruction in the symbolic domain.
func bitvecOp(op ir.Op, w ir.Width, a, b uint64) (uint64, bool) {
	mk := func(v uint64) *bitvec.Expr { return bitvec.Const(uint8(w), v) }
	var e *bitvec.Expr
	switch op {
	case ir.Add:
		e = bitvec.Add(mk(a), mk(b))
	case ir.Sub:
		e = bitvec.Sub(mk(a), mk(b))
	case ir.Mul:
		e = bitvec.Mul(mk(a), mk(b))
	case ir.UDiv:
		if b&w.Mask() == 0 {
			return 0, false // VM traps; symbolic domain diverges by design
		}
		e = bitvec.UDiv(mk(a), mk(b))
	case ir.SDiv:
		if b&w.Mask() == 0 {
			return 0, false
		}
		e = bitvec.SDiv(mk(a), mk(b))
	case ir.URem:
		if b&w.Mask() == 0 {
			return 0, false
		}
		e = bitvec.URem(mk(a), mk(b))
	case ir.SRem:
		if b&w.Mask() == 0 {
			return 0, false
		}
		e = bitvec.SRem(mk(a), mk(b))
	case ir.And:
		e = bitvec.And(mk(a), mk(b))
	case ir.Or:
		e = bitvec.Or(mk(a), mk(b))
	case ir.Xor:
		e = bitvec.Xor(mk(a), mk(b))
	case ir.Shl:
		e = bitvec.Shl(mk(a), mk(b))
	case ir.LShr:
		e = bitvec.LShr(mk(a), mk(b))
	case ir.AShr:
		e = bitvec.AShr(mk(a), mk(b))
	case ir.Eq:
		e = cmpWide(bitvec.Eq(mk(a), mk(b)))
	case ir.Ne:
		e = cmpWide(bitvec.Ne(mk(a), mk(b)))
	case ir.ULt:
		e = cmpWide(bitvec.Ult(mk(a), mk(b)))
	case ir.ULe:
		e = cmpWide(bitvec.Ule(mk(a), mk(b)))
	case ir.SLt:
		e = cmpWide(bitvec.Slt(mk(a), mk(b)))
	case ir.SLe:
		e = cmpWide(bitvec.Sle(mk(a), mk(b)))
	default:
		return 0, false
	}
	v, err := bitvec.Eval(e, bitvec.MapEnv{})
	if err != nil {
		return 0, false
	}
	return v, true
}

func cmpWide(e *bitvec.Expr) *bitvec.Expr { return bitvec.ZExt(64, e) }

// TestVMAgreesWithBitvecSemantics cross-validates the two independent
// implementations of the arithmetic semantics: the interpreter and the
// symbolic expression evaluator the taint tracker relies on. Any
// divergence would silently corrupt excised checks.
func TestVMAgreesWithBitvecSemantics(t *testing.T) {
	ops := []ir.Op{
		ir.Add, ir.Sub, ir.Mul, ir.UDiv, ir.SDiv, ir.URem, ir.SRem,
		ir.And, ir.Or, ir.Xor, ir.Shl, ir.LShr, ir.AShr,
		ir.Eq, ir.Ne, ir.ULt, ir.ULe, ir.SLt, ir.SLe,
	}
	widths := []ir.Width{ir.W8, ir.W16, ir.W32, ir.W64}
	prop := func(a, b uint64, opIdx, wIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		w := widths[int(wIdx)%len(widths)]
		a &= w.Mask()
		b &= w.Mask()
		want, ok := bitvecOp(op, w, a, b)
		if !ok {
			// Division by zero: the VM must trap.
			if op == ir.UDiv || op == ir.SDiv || op == ir.URem || op == ir.SRem {
				_, trapped := runBinOp(op, w, a, b)
				return trapped
			}
			return true
		}
		got, trapped := runBinOp(op, w, a, b)
		if trapped {
			return false
		}
		return got == want
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// ---- Fresh VM vs recycled Runner (the pooled path).
//
// The validator and the phaged service replay many inputs through one
// vm.Runner, whose Reset recycles the previous run's stack, globals
// and heap structures. Any state leaking across Reset would silently
// change validation verdicts, so randomized programs must execute
// trace-identically on a recycled Runner and on a fresh VM.

const diffMaxSteps = 4096

var genWidths = []ir.Width{ir.W8, ir.W16, ir.W32, ir.W64}

// genModule builds a random, structurally valid module: a main
// function mixing ALU ops, frame/global/heap memory traffic, input
// builtins, branches (mostly forward, occasionally backward) and calls
// into a small helper function. Programs may legitimately trap — both
// execution paths must then trap identically.
func genModule(r *rand.Rand) *ir.Module {
	const numRegs = 8
	helper := &ir.Function{
		Name: "helper", NumRegs: 4, FrameSize: 16,
		Params: []ir.Param{{Off: 0, W: ir.W32}},
		RetW:   ir.W32,
		Code: []ir.Instr{
			{Op: ir.FrameAddr, Dst: 0, Imm: 0},
			{Op: ir.Load, W: ir.W32, Dst: 1, A: 0},
			{Op: ir.ConstOp, W: ir.W32, Dst: 2, Imm: uint64(r.Intn(1 << 16))},
			{Op: ir.Add, W: ir.W32, Dst: 3, A: 1, B: 2},
			{Op: ir.Ret, A: 3},
		},
	}

	n := 16 + r.Intn(32)
	code := make([]ir.Instr, 0, n+3)
	// Registers 0 and 1 hold valid frame and global addresses so that
	// generated loads and stores hit mapped memory often enough to
	// exercise the recycled buffers, not only the trap paths.
	code = append(code,
		ir.Instr{Op: ir.FrameAddr, Dst: 0, Imm: uint64(r.Intn(7) * 8)},
		ir.Instr{Op: ir.GlobalAddr, Dst: 1, Imm: uint64(r.Intn(7) * 8)},
	)
	body := n - len(code)
	for i := 0; i < body; i++ {
		pc := len(code)
		last := pc == n-1
		if last {
			code = append(code, ir.Instr{Op: ir.Ret, A: ir.Reg(r.Intn(numRegs))})
			break
		}
		reg := func() ir.Reg { return ir.Reg(r.Intn(numRegs)) }
		memReg := func() ir.Reg {
			if r.Intn(4) != 0 {
				return ir.Reg(r.Intn(3)) // frame, global or alloc pointer
			}
			return reg()
		}
		w := genWidths[r.Intn(len(genWidths))]
		fwd := func() int32 { return int32(pc + 1 + r.Intn(n-pc-1)) }
		switch k := r.Intn(20); {
		case k < 6: // ALU
			op := ir.Add + ir.Op(r.Intn(int(ir.SLe-ir.Add)+1))
			code = append(code, ir.Instr{Op: op, W: w, Dst: reg(), A: reg(), B: reg()})
		case k < 8:
			code = append(code, ir.Instr{Op: ir.ConstOp, W: w, Dst: reg(), Imm: uint64(r.Int63())})
		case k < 9:
			conv := []ir.Op{ir.ZExt, ir.SExt, ir.Trunc}[r.Intn(3)]
			code = append(code, ir.Instr{Op: conv, W: w, SrcW: genWidths[r.Intn(len(genWidths))], Dst: reg(), A: reg()})
		case k < 11:
			code = append(code, ir.Instr{Op: ir.Load, W: w, Dst: reg(), A: memReg()})
		case k < 13:
			code = append(code, ir.Instr{Op: ir.Store, W: w, A: memReg(), B: reg()})
		case k < 15: // input/output builtins
			b := []ir.Builtin{ir.BInU8, ir.BInU16BE, ir.BInU16LE, ir.BInU32BE,
				ir.BInU32LE, ir.BInPos, ir.BInLen, ir.BInEOF}[r.Intn(8)]
			code = append(code, ir.Instr{Op: ir.CallB, Builtin: b, Dst: reg()})
		case k < 16: // heap traffic: alloc into r2, free r2 later
			if r.Intn(2) == 0 {
				code = append(code, ir.Instr{Op: ir.CallB, Builtin: ir.BAlloc, Dst: 2, Args: []ir.Reg{reg()}})
			} else {
				code = append(code, ir.Instr{Op: ir.CallB, Builtin: ir.BFree, Dst: 3, Args: []ir.Reg{2}})
			}
		case k < 17:
			code = append(code, ir.Instr{Op: ir.CallB, Builtin: ir.BOut, Dst: 3, Args: []ir.Reg{reg()}})
		case k < 18:
			code = append(code, ir.Instr{Op: ir.Call, Fn: 1, Dst: reg(), Args: []ir.Reg{reg()}})
		default: // control flow
			t1 := fwd()
			t2 := fwd()
			if r.Intn(8) == 0 {
				t2 = int32(r.Intn(pc + 1)) // occasional backward edge
			}
			if r.Intn(3) == 0 {
				code = append(code, ir.Instr{Op: ir.Jmp, Target: t1})
			} else {
				code = append(code, ir.Instr{Op: ir.Br, A: reg(), Target: t1, Target2: t2})
			}
		}
	}
	if code[len(code)-1].Op != ir.Ret {
		code = append(code, ir.Instr{Op: ir.Ret, A: 0})
	}

	main := &ir.Function{
		Name: "main", NumRegs: numRegs, FrameSize: 64, RetW: ir.W32, Code: code,
	}
	return &ir.Module{
		Name:         "randprog",
		Funcs:        []*ir.Function{main, helper},
		Entry:        0,
		Globals:      make([]byte, 64),
		GlobalBlocks: []ir.GlobalBlock{{Off: 0, Size: 64}},
	}
}

// diffTracer records the trace fields that define observable
// execution.
type diffTracer struct{ events []Event }

func (d *diffTracer) Step(ev *Event) {
	e := *ev
	e.Args = append([]uint64(nil), ev.Args...)
	d.events = append(d.events, e)
}

func sameTrap(a, b *Trap) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// compareResults fails the test unless two runs agree on exit code,
// step count, trap (kind, address, fn, pc and line) and output.
func compareResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.ExitCode != got.ExitCode || want.Steps != got.Steps || !sameTrap(want.Trap, got.Trap) {
		t.Fatalf("%s: result diverges: want={exit:%d steps:%d trap:%v} got={exit:%d steps:%d trap:%v}",
			label, want.ExitCode, want.Steps, want.Trap, got.ExitCode, got.Steps, got.Trap)
	}
	if len(want.Output) != len(got.Output) {
		t.Fatalf("%s: output lengths %d != %d", label, len(want.Output), len(got.Output))
	}
	for i := range want.Output {
		if want.Output[i] != got.Output[i] {
			t.Fatalf("%s: output[%d] = %d, want %d", label, i, got.Output[i], want.Output[i])
		}
	}
}

func compareRuns(t *testing.T, label string, want, got *Result, wantTr, gotTr *diffTracer) {
	t.Helper()
	compareResults(t, label, want, got)
	if len(wantTr.events) != len(gotTr.events) {
		t.Fatalf("%s: trace lengths %d != %d", label, len(wantTr.events), len(gotTr.events))
	}
	for i := range wantTr.events {
		a, b := &wantTr.events[i], &gotTr.events[i]
		same := a.Fn == b.Fn && a.PC == b.PC && a.In == b.In && a.Depth == b.Depth &&
			a.FP == b.FP && a.Val == b.Val && a.A == b.A && a.B == b.B &&
			a.Addr == b.Addr && a.Taken == b.Taken && a.CalleeFP == b.CalleeFP &&
			a.InOff == b.InOff && a.InLen == b.InLen && a.AllocSz == b.AllocSz &&
			len(a.Args) == len(b.Args)
		for j := 0; same && j < len(a.Args); j++ {
			same = a.Args[j] == b.Args[j]
		}
		if !same {
			t.Fatalf("%s: trace event %d diverges:\n fresh:    %+v\n recycled: %+v", label, i, *a, *b)
		}
	}
}

// TestRunnerRecycledMatchesFreshVM cross-validates the two execution
// paths over randomized programs and inputs: a recycled Runner (the
// pooled path the validator and phaged workers use) must be
// bit-identical — results AND instruction-level traces — to a fresh VM
// per input. The Runner deliberately runs inputs back to back so every
// run after the first exercises Reset over dirtied state.
func TestRunnerRecycledMatchesFreshVM(t *testing.T) {
	programs := 200
	if testing.Short() {
		programs = 60
	}
	r := rand.New(rand.NewSource(0xC0DEFA6E))
	for p := 0; p < programs; p++ {
		mod := genModule(r)
		if err := mod.Validate(); err != nil {
			t.Fatalf("program %d: generator produced invalid module: %v", p, err)
		}
		runner := NewRunner(mod)
		runner.MaxSteps = diffMaxSteps
		for k := 0; k < 6; k++ {
			input := make([]byte, r.Intn(33))
			r.Read(input)
			if k == 0 {
				input = nil // empty-input edge case first
			}

			fresh := New(mod, input)
			fresh.MaxSteps = diffMaxSteps
			wantTr := &diffTracer{}
			fresh.Tracer = wantTr
			want := fresh.Run()

			gotTr := &diffTracer{}
			runner.Tracer = gotTr
			got := runner.Run(input)

			label := fmt.Sprintf("program %d input %d", p, k)
			compareRuns(t, label, want, got, wantTr, gotTr)
		}
	}
}

// noopTracer attaches a tracer that ignores every event.
type noopTracer struct{}

func (noopTracer) Step(*Event) {}

// TestUntracedMatchesTraced: untraced runs skip building the per-step
// Event, so they take a different path through exec than traced runs.
// Over the randomized programs, one Runner alternating untraced runs
// and runs under a no-op tracer must produce identical Results.
func TestUntracedMatchesTraced(t *testing.T) {
	r := rand.New(rand.NewSource(0x7EACE0FF))
	for p := 0; p < 200; p++ {
		mod := genModule(r)
		runner := NewRunner(mod)
		runner.MaxSteps = diffMaxSteps
		for k := 0; k < 6; k++ {
			input := make([]byte, r.Intn(33))
			r.Read(input)
			run := func(tr Tracer) *Result {
				runner.Tracer = tr
				return runner.Run(input)
			}
			// Alternate which mode runs first, so each mode also runs
			// over state the other left behind.
			var traced, untraced *Result
			if k%2 == 0 {
				untraced, traced = run(nil), run(noopTracer{})
			} else {
				traced, untraced = run(noopTracer{}), run(nil)
			}
			compareResults(t, fmt.Sprintf("program %d input %d", p, k), traced, untraced)
		}
	}
}

// TestTracerAfterUntracedRuns: a tracer attached to a Runner after
// untraced runs must see fully rebuilt events, identical to a fresh
// traced VM's, with no Args, Addr or Val left over from untraced
// steps.
func TestTracerAfterUntracedRuns(t *testing.T) {
	r := rand.New(rand.NewSource(0x57A1E))
	for p := 0; p < 60; p++ {
		mod := genModule(r)
		runner := NewRunner(mod)
		runner.MaxSteps = diffMaxSteps
		input := make([]byte, 1+r.Intn(32))
		r.Read(input)
		for k := 0; k < 3; k++ {
			runner.Run(input)
		}

		fresh := New(mod, input)
		fresh.MaxSteps = diffMaxSteps
		wantTr := &diffTracer{}
		fresh.Tracer = wantTr
		want := fresh.Run()

		gotTr := &diffTracer{}
		runner.Tracer = gotTr
		got := runner.Run(input)
		label := fmt.Sprintf("program %d", p)
		compareRuns(t, label, want, got, wantTr, gotTr)
		for i, ev := range gotTr.events {
			op := ev.In.Op
			if op != ir.Call && op != ir.CallB && ev.Args != nil {
				t.Fatalf("%s: event %d (%v) carries stale Args %v", label, i, op, ev.Args)
			}
			if op != ir.Load && op != ir.Store && ev.Addr != 0 {
				t.Fatalf("%s: event %d (%v) carries stale Addr %#x", label, i, op, ev.Addr)
			}
			if (op == ir.Nop || op == ir.Jmp || op == ir.Br) && ev.Val != 0 {
				t.Fatalf("%s: event %d (%v) carries stale Val %d", label, i, op, ev.Val)
			}
		}
	}
}
