package vm

import "codephage/internal/ir"

// This file makes repeated executions of one module allocation-light.
// The validator replays the error input and the whole regression suite
// against every candidate patch; constructing a fresh VM per run costs
// a 1 MB stack plus globals and heap bookkeeping each time. A Runner
// keeps one VM and recycles those buffers between runs.

// Reset rewinds the VM to its initial state with a new input, reusing
// the stack, globals and heap structures of the previous run. Live
// stack memory is zeroed on frame entry and heap pages materialise on
// first touch, so no stale state from the previous run is observable.
func (v *VM) Reset(input []byte) {
	v.input = input
	v.inPos = 0
	if v.globals == nil {
		v.globals = append([]byte(nil), v.Mod.Globals...)
	} else {
		copy(v.globals, v.Mod.Globals)
	}
	clear(v.pages)
	v.heapTop = 0
	v.blocks = v.blocks[:0]
	v.sp = StackBase + StackSize
	v.frames = v.frames[:0]
	// Output escapes into Results that callers retain and compare
	// across runs, so it must not be recycled.
	v.output = nil
	v.steps = 0
	v.exitCode = 0
	v.mainRet = 0
}

// Runner executes one module over many inputs, reusing one VM's
// buffers between runs. Not safe for concurrent use; use one Runner
// per goroutine.
type Runner struct {
	// MaxSteps bounds each run (0 = the VM default).
	MaxSteps int64
	// Tracer observes each run's execution (nil = untraced). The
	// recycled path must be trace-identical to a fresh VM; the
	// differential tests rely on this hook to check it.
	Tracer Tracer
	v      *VM
}

// NewRunner prepares a reusable runner for the module.
func NewRunner(mod *ir.Module) *Runner {
	return &Runner{v: New(mod, nil)}
}

// Run executes the module on the input from a fresh initial state.
// The run's heap pages are dropped as it ends: a run that touched a
// hundred megabytes of heap must not keep them live while the caller
// prepares the next input.
func (r *Runner) Run(input []byte) *Result {
	r.v.Reset(input)
	r.v.MaxSteps = r.MaxSteps
	r.v.Tracer = r.Tracer
	res := r.v.Run()
	clear(r.v.pages)
	return res
}
