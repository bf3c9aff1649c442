// Package vm executes MVX modules with always-on memory checking
// (bounds-checked heap blocks and globals, divide-by-zero traps) and a
// pluggable execution tracer. The combination of instrumented
// execution and memcheck stands in for the paper's Valgrind substrate:
// the taint tracker mirrors instruction semantics through the Tracer
// interface, and error-triggering inputs manifest as traps exactly
// where Valgrind memcheck would report them.
package vm

import (
	"fmt"

	"codephage/internal/ir"
)

// Region base addresses. Address 0 is never mapped (null).
const (
	GlobalBase = 0x0000_0000_0001_0000
	HeapBase   = 0x0000_0001_0000_0000 // heap address region: 124 GB
	StackBase  = 0x0000_0020_0000_0000
	StackSize  = 1 << 20
	HeapLimit  = 0xF000_0000 // alloc beyond ~3.75 GB returns NULL, like 32-bit malloc
)

// TrapKind classifies fatal runtime errors.
type TrapKind uint8

// Trap kinds.
const (
	TrapNone TrapKind = iota
	TrapOOBRead
	TrapOOBWrite
	TrapDivZero
	TrapUnmapped
	TrapStackOverflow
	TrapBadFree
	TrapAbort
	TrapStepLimit
)

var trapNames = [...]string{
	TrapNone: "none", TrapOOBRead: "out-of-bounds read",
	TrapOOBWrite: "out-of-bounds write", TrapDivZero: "divide by zero",
	TrapUnmapped: "unmapped address", TrapStackOverflow: "stack overflow",
	TrapBadFree: "invalid free", TrapAbort: "abort",
	TrapStepLimit: "instruction budget exceeded",
}

func (k TrapKind) String() string {
	if int(k) < len(trapNames) {
		return trapNames[k]
	}
	return fmt.Sprintf("trap(%d)", uint8(k))
}

// Trap describes a fatal runtime error with its location.
type Trap struct {
	Kind TrapKind
	Fn   int32
	PC   int32
	Line int32
	Addr uint64
}

func (t *Trap) Error() string {
	return fmt.Sprintf("%s at fn%d+%d (line %d, addr %#x)", t.Kind, t.Fn, t.PC, t.Line, t.Addr)
}

// Result is the outcome of a program run.
type Result struct {
	ExitCode int32
	Trap     *Trap // nil on clean termination
	Output   []uint64
	Steps    int64
}

// OK reports whether the run terminated without a trap.
func (r *Result) OK() bool { return r.Trap == nil }

// Event describes one executed instruction to a Tracer. The tracer
// mirrors semantics from these events (like a Valgrind tool's
// instrumented IR). Fields beyond Fn/PC/In are populated as relevant.
type Event struct {
	Fn    int32
	PC    int32
	In    *ir.Instr
	Depth int    // call depth of the executing frame
	FP    uint64 // frame pointer of the executing frame

	Val   uint64   // result written to In.Dst
	A, B  uint64   // operand values
	Addr  uint64   // Load/Store effective address
	Taken bool     // Br direction
	Args  []uint64 // Call/CallB argument values (valid only during Step)

	CalleeFP uint64 // Call: new frame's frame pointer
	InOff    int    // input-reading builtin: first input byte consumed
	InLen    int    // input-reading builtin: number of bytes consumed
	AllocSz  uint64 // BAlloc: requested size
}

// Tracer observes execution. Step is called after each instruction's
// effects are applied (except traps, which abort the run). The VM
// reuses one Event, and its Args buffer, for every step: a tracer that
// keeps anything past Step must copy it.
type Tracer interface {
	Step(ev *Event)
}

type heapBlock struct {
	off  int64 // offset within the heap region
	size int64
	live bool
}

type frame struct {
	fn     int32
	pc     int32
	regs   []uint64
	fp     uint64
	retDst ir.Reg
}

// VM executes one module on one input.
type VM struct {
	Mod      *ir.Module
	Tracer   Tracer
	MaxSteps int64 // 0 = default (20M)

	input    []byte
	inPos    int
	globals  []byte
	pages    map[int64]*[heapPageSize]byte
	heapTop  int64
	blocks   []heapBlock
	stack    []byte
	sp       uint64 // current stack frame base address
	frames   []frame
	output   []uint64
	steps    int64
	exitCode int32
	mainRet  int32
	ev       Event
	args     []uint64 // scratch for the executing call's argument values
}

// New prepares a VM for the module and input.
func New(mod *ir.Module, input []byte) *VM {
	v := &VM{Mod: mod, input: input}
	v.globals = append([]byte(nil), mod.Globals...)
	v.pages = map[int64]*[heapPageSize]byte{}
	v.sp = StackBase + StackSize
	v.stack = make([]byte, StackSize)
	return v
}

type trapPanic struct{ t *Trap }

func (v *VM) trap(kind TrapKind, addr uint64) {
	t := &Trap{Kind: kind, Addr: addr}
	if len(v.frames) > 0 {
		fr := &v.frames[len(v.frames)-1]
		t.Fn, t.PC = fr.fn, fr.pc
		f := v.Mod.Funcs[fr.fn]
		if int(fr.pc) < len(f.Code) {
			t.Line = f.Code[fr.pc].Line
		}
	}
	panic(trapPanic{t})
}

// Run executes the module's entry function to completion.
func (v *VM) Run() (res *Result) {
	defer func() {
		if r := recover(); r != nil {
			tp, ok := r.(trapPanic)
			if !ok {
				panic(r)
			}
			res = &Result{ExitCode: -1, Trap: tp.t, Output: v.output, Steps: v.steps}
		}
	}()
	maxSteps := v.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 20_000_000
	}

	v.pushFrame(v.Mod.Entry, nil, 0)
	for len(v.frames) > 0 {
		if v.steps >= maxSteps {
			v.trap(TrapStepLimit, 0)
		}
		v.steps++
		fr := &v.frames[len(v.frames)-1]
		f := v.Mod.Funcs[fr.fn]
		in := &f.Code[fr.pc]
		if halted := v.exec(fr, f, in); halted {
			return &Result{ExitCode: v.exitCode, Output: v.output, Steps: v.steps}
		}
	}
	// main returned normally; its return value is the exit code.
	return &Result{ExitCode: v.mainRet, Output: v.output, Steps: v.steps}
}

// Steps returns the number of instructions executed so far.
func (v *VM) Steps() int64 { return v.steps }
