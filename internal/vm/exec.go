package vm

import (
	"codephage/internal/ir"
)

func signExtend(v uint64, w ir.Width) int64 {
	v &= w.Mask()
	if w < 64 && v&(uint64(1)<<(w-1)) != 0 {
		v |= ^w.Mask()
	}
	return int64(v)
}

func (v *VM) pushFrame(fn int32, args []uint64, retDst ir.Reg) {
	f := v.Mod.Funcs[fn]
	newSP := v.sp - uint64(f.FrameSize)
	if newSP < StackBase || len(v.frames) > 512 {
		v.trap(TrapStackOverflow, newSP)
	}
	// Zero the frame for deterministic behaviour (the regression
	// harness compares program outputs bit-for-bit).
	lo := newSP - StackBase
	for i := lo; i < lo+uint64(f.FrameSize); i++ {
		v.stack[i] = 0
	}
	v.sp = newSP
	v.frames = append(v.frames, frame{fn: fn, regs: v.frameRegs(f.NumRegs), fp: newSP, retDst: retDst})
	// Store arguments into their frame slots.
	for i, p := range f.Params {
		v.storeMem(newSP+uint64(p.Off), p.W, args[i]&p.W.Mask())
	}
}

// frameRegs returns a zeroed register file for a frame about to be
// pushed, reusing the one a popped frame left in the slot above the
// top of the frame stack: a call in a loop then allocates nothing.
func (v *VM) frameRegs(n int32) []uint64 {
	if len(v.frames) < cap(v.frames) {
		if regs := v.frames[:len(v.frames)+1][len(v.frames)].regs; cap(regs) >= int(n) {
			regs = regs[:n]
			clear(regs)
			return regs
		}
	}
	return make([]uint64, n)
}

func (v *VM) popFrame(ret uint64) {
	fr := v.frames[len(v.frames)-1]
	f := v.Mod.Funcs[fr.fn]
	v.sp += uint64(f.FrameSize)
	v.frames = v.frames[:len(v.frames)-1]
	if len(v.frames) == 0 {
		v.mainRet = int32(ret)
		return
	}
	caller := &v.frames[len(v.frames)-1]
	if f.RetW != 0 {
		caller.regs[fr.retDst] = ret & f.RetW.Mask()
	} else {
		caller.regs[fr.retDst] = 0
	}
}

// emitEvent forwards an execution event to the tracer, if any.
func (v *VM) emitEvent(ev *Event) {
	if v.Tracer != nil {
		v.Tracer.Step(ev)
	}
}

// callArgs gathers a call's argument values into the VM's scratch
// buffer. The values are consumed before the next instruction runs:
// pushFrame stores them into the callee frame and builtins read them
// at once, so one buffer serves every call.
func (v *VM) callArgs(fr *frame, in *ir.Instr) []uint64 {
	args := v.args[:0]
	for _, r := range in.Args {
		args = append(args, fr.regs[r])
	}
	v.args = args
	return args
}

// exec runs one instruction; it returns true if the program halted
// via exit().
func (v *VM) exec(fr *frame, f *ir.Function, in *ir.Instr) bool {
	ev := &v.ev
	// Untraced runs skip rebuilding the event: the field writes below
	// still land in v.ev, but nothing reads them, and a tracer attached
	// later sees every event rebuilt from scratch here first.
	if v.Tracer != nil {
		*ev = Event{Fn: fr.fn, PC: fr.pc, In: in, Depth: len(v.frames) - 1, FP: fr.fp}
	}
	nextPC := fr.pc + 1

	switch in.Op {
	case ir.Nop:

	case ir.ConstOp:
		fr.regs[in.Dst] = in.Imm & in.W.Mask()
		ev.Val = fr.regs[in.Dst]

	case ir.Mov:
		fr.regs[in.Dst] = fr.regs[in.A] & in.W.Mask()
		ev.A = fr.regs[in.A]
		ev.Val = fr.regs[in.Dst]

	case ir.ZExt:
		fr.regs[in.Dst] = fr.regs[in.A] & in.SrcW.Mask()
		ev.A = fr.regs[in.A]
		ev.Val = fr.regs[in.Dst]

	case ir.SExt:
		fr.regs[in.Dst] = uint64(signExtend(fr.regs[in.A], in.SrcW)) & in.W.Mask()
		ev.A = fr.regs[in.A]
		ev.Val = fr.regs[in.Dst]

	case ir.Trunc:
		fr.regs[in.Dst] = fr.regs[in.A] & in.W.Mask()
		ev.A = fr.regs[in.A]
		ev.Val = fr.regs[in.Dst]

	case ir.FrameAddr:
		fr.regs[in.Dst] = fr.fp + in.Imm
		ev.Val = fr.regs[in.Dst]

	case ir.GlobalAddr:
		fr.regs[in.Dst] = GlobalBase + in.Imm
		ev.Val = fr.regs[in.Dst]

	case ir.Load:
		addr := fr.regs[in.A]
		fr.regs[in.Dst] = v.loadMem(addr, in.W)
		ev.Addr = addr
		ev.Val = fr.regs[in.Dst]

	case ir.Store:
		addr := fr.regs[in.A]
		val := fr.regs[in.B] & in.W.Mask()
		v.storeMem(addr, in.W, val)
		ev.Addr = addr
		ev.B = val
		ev.Val = val

	case ir.Jmp:
		nextPC = in.Target

	case ir.Br:
		cond := fr.regs[in.A]
		ev.A = cond
		ev.Taken = cond != 0
		if cond != 0 {
			nextPC = in.Target
		} else {
			nextPC = in.Target2
		}

	case ir.Ret:
		var ret uint64
		if f.RetW != 0 {
			ret = fr.regs[in.A] & f.RetW.Mask()
		}
		ev.A = ret
		ev.Val = ret
		v.emitEvent(ev)
		v.popFrame(ret)
		return false

	case ir.Call:
		args := v.callArgs(fr, in)
		ev.Args = args
		fr.pc = nextPC // resume point after return
		calleeFrame := v.sp - uint64(v.Mod.Funcs[in.Fn].FrameSize)
		ev.CalleeFP = calleeFrame
		v.pushFrame(in.Fn, args, in.Dst)
		v.emitEvent(ev)
		return false

	case ir.CallB:
		args := v.callArgs(fr, in)
		ev.Args = args
		halted := v.execBuiltin(fr, in, args, ev)
		if halted {
			v.emitEvent(ev)
			return true
		}

	default:
		if in.Op.IsBinary() {
			a := fr.regs[in.A] & in.W.Mask()
			b := fr.regs[in.B] & in.W.Mask()
			fr.regs[in.Dst] = v.binOp(in.Op, in.W, a, b)
			ev.A, ev.B = a, b
			ev.Val = fr.regs[in.Dst]
			break
		}
		v.trap(TrapUnmapped, uint64(in.Op)) // unreachable on validated modules
	}

	fr.pc = nextPC
	v.emitEvent(ev)
	return false
}

func (v *VM) binOp(op ir.Op, w ir.Width, a, b uint64) uint64 {
	boolVal := func(x bool) uint64 {
		if x {
			return 1
		}
		return 0
	}
	switch op {
	case ir.Add:
		return (a + b) & w.Mask()
	case ir.Sub:
		return (a - b) & w.Mask()
	case ir.Mul:
		return (a * b) & w.Mask()
	case ir.UDiv:
		if b == 0 {
			v.trap(TrapDivZero, 0)
		}
		return (a / b) & w.Mask()
	case ir.SDiv:
		if b == 0 {
			v.trap(TrapDivZero, 0)
		}
		sa, sb := signExtend(a, w), signExtend(b, w)
		if sb == -1 && sa == -(1<<(w-1)) {
			return a // INT_MIN / -1 wraps
		}
		return uint64(sa/sb) & w.Mask()
	case ir.URem:
		if b == 0 {
			v.trap(TrapDivZero, 0)
		}
		return (a % b) & w.Mask()
	case ir.SRem:
		if b == 0 {
			v.trap(TrapDivZero, 0)
		}
		sa, sb := signExtend(a, w), signExtend(b, w)
		if sb == -1 && sa == -(1<<(w-1)) {
			return 0
		}
		return uint64(sa%sb) & w.Mask()
	case ir.And:
		return a & b
	case ir.Or:
		return a | b
	case ir.Xor:
		return a ^ b
	case ir.Shl:
		if b >= uint64(w) {
			return 0
		}
		return (a << b) & w.Mask()
	case ir.LShr:
		if b >= uint64(w) {
			return 0
		}
		return a >> b
	case ir.AShr:
		if b >= uint64(w) {
			if signExtend(a, w) < 0 {
				return w.Mask()
			}
			return 0
		}
		return uint64(signExtend(a, w)>>b) & w.Mask()
	case ir.Eq:
		return boolVal(a == b)
	case ir.Ne:
		return boolVal(a != b)
	case ir.ULt:
		return boolVal(a < b)
	case ir.ULe:
		return boolVal(a <= b)
	case ir.SLt:
		return boolVal(signExtend(a, w) < signExtend(b, w))
	case ir.SLe:
		return boolVal(signExtend(a, w) <= signExtend(b, w))
	}
	panic("vm: bad binary op")
}
