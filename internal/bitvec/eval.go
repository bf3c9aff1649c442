package bitvec

import (
	"fmt"
	"slices"
)

// Env supplies concrete values for expression leaves during evaluation.
type Env interface {
	// FieldValue returns the concrete value of the named input field.
	FieldValue(name string) (uint64, bool)
	// RefValue returns the concrete value of a recipient path reference.
	RefValue(path string) (uint64, bool)
}

// MapEnv is an Env backed by plain maps. A nil map is treated as empty.
type MapEnv struct {
	Fields map[string]uint64
	Refs   map[string]uint64
}

// FieldValue implements Env.
func (m MapEnv) FieldValue(name string) (uint64, bool) {
	v, ok := m.Fields[name]
	return v, ok
}

// RefValue implements Env.
func (m MapEnv) RefValue(path string) (uint64, bool) {
	v, ok := m.Refs[path]
	return v, ok
}

// signExtend interprets the low w bits of v as a signed value and
// returns it sign-extended to 64 bits.
func signExtend(v uint64, w uint8) int64 {
	v &= Mask(w)
	if w < 64 && v&(uint64(1)<<(w-1)) != 0 {
		v |= ^Mask(w)
	}
	return int64(v)
}

// Eval computes the concrete value of e under env. The result is masked
// to e.W bits. Division by zero evaluates to the dividend (the VM traps
// on concrete division by zero before any symbolic value is consumed,
// so this case only arises for counterexample probing).
func Eval(e *Expr, env Env) (uint64, error) {
	switch e.Op {
	case OpConst:
		return e.Val, nil
	case OpField:
		v, ok := env.FieldValue(e.Name)
		if !ok {
			return 0, fmt.Errorf("bitvec: no value for field %q", e.Name)
		}
		return v & Mask(e.W), nil
	case OpRef:
		v, ok := env.RefValue(e.Name)
		if !ok {
			return 0, fmt.Errorf("bitvec: no value for ref %q", e.Name)
		}
		return v & Mask(e.W), nil
	}

	x, err := Eval(e.X, env)
	if err != nil {
		return 0, err
	}
	switch e.Op {
	case OpNot:
		return ^x & Mask(e.W), nil
	case OpNeg:
		return (-x) & Mask(e.W), nil
	case OpZExt:
		return x, nil
	case OpSExt:
		return uint64(signExtend(x, e.X.W)) & Mask(e.W), nil
	case OpBool:
		if x != 0 {
			return 1, nil
		}
		return 0, nil
	case OpLNot:
		if x == 0 {
			return 1, nil
		}
		return 0, nil
	case OpExtr:
		return (x >> e.Lo) & Mask(e.W), nil
	}

	y, err := Eval(e.Y, env)
	if err != nil {
		return 0, err
	}
	switch e.Op {
	case OpIte:
		if x != 0 {
			return y, nil
		}
		return Eval(e.Y2, env)
	case OpConcat:
		return (x<<e.Y.W | y) & Mask(e.W), nil
	}
	return evalBin(e.Op, e.W, e.X.W, x, y), nil
}

// evalBin evaluates a binary operation over masked operand values.
// opw is the operand width (differs from w only for comparisons).
func evalBin(op Op, w, opw uint8, x, y uint64) uint64 {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return (x + y) & Mask(w)
	case OpSub:
		return (x - y) & Mask(w)
	case OpMul:
		return (x * y) & Mask(w)
	case OpUDiv:
		if y == 0 {
			return x
		}
		return (x / y) & Mask(w)
	case OpSDiv:
		if y == 0 {
			return x
		}
		sx, sy := signExtend(x, opw), signExtend(y, opw)
		if sx == -(1<<(opw-1)) && sy == -1 {
			return x // overflow case: INT_MIN / -1 wraps to INT_MIN
		}
		return uint64(sx/sy) & Mask(w)
	case OpURem:
		if y == 0 {
			return x
		}
		return (x % y) & Mask(w)
	case OpSRem:
		if y == 0 {
			return x
		}
		sx, sy := signExtend(x, opw), signExtend(y, opw)
		if sx == -(1<<(opw-1)) && sy == -1 {
			return 0
		}
		return uint64(sx%sy) & Mask(w)
	case OpAnd:
		return x & y
	case OpOr:
		return x | y
	case OpXor:
		return x ^ y
	case OpShl:
		if y >= uint64(w) {
			return 0
		}
		return (x << y) & Mask(w)
	case OpLShr:
		if y >= uint64(w) {
			return 0
		}
		return x >> y
	case OpAShr:
		if y >= uint64(w) {
			if signExtend(x, w) < 0 {
				return Mask(w)
			}
			return 0
		}
		return uint64(signExtend(x, w)>>y) & Mask(w)
	case OpConcat:
		return 0 // handled by caller; Concat needs operand widths
	case OpEq:
		return b(x == y)
	case OpNe:
		return b(x != y)
	case OpUlt:
		return b(x < y)
	case OpUle:
		return b(x <= y)
	case OpSlt:
		return b(signExtend(x, opw) < signExtend(y, opw))
	case OpSle:
		return b(signExtend(x, opw) <= signExtend(y, opw))
	}
	panic("bitvec: evalBin: bad op " + op.Name())
}

// CompileSlots compiles e for repeated evaluation with its fields bound
// by position: the returned function reads field names[i] from
// vals[i]. It computes what Eval computes under an Env mapping each
// name to its slot, without map lookups or allocation per call, for
// callers that probe one expression under many assignments. It fails
// when e contains a Ref or a field that is not in names.
func CompileSlots(e *Expr, names []string) (func(vals []uint64) uint64, error) {
	switch e.Op {
	case OpConst:
		v := e.Val
		return func([]uint64) uint64 { return v }, nil
	case OpField:
		i := slices.Index(names, e.Name)
		if i < 0 {
			return nil, fmt.Errorf("bitvec: no slot for field %q", e.Name)
		}
		m := Mask(e.W)
		return func(vals []uint64) uint64 { return vals[i] & m }, nil
	case OpRef:
		return nil, fmt.Errorf("bitvec: no slot for ref %q", e.Name)
	}

	x, err := CompileSlots(e.X, names)
	if err != nil {
		return nil, err
	}
	m := Mask(e.W)
	switch e.Op {
	case OpNot:
		return func(vals []uint64) uint64 { return ^x(vals) & m }, nil
	case OpNeg:
		return func(vals []uint64) uint64 { return -x(vals) & m }, nil
	case OpZExt:
		return x, nil
	case OpSExt:
		xw := e.X.W
		return func(vals []uint64) uint64 { return uint64(signExtend(x(vals), xw)) & m }, nil
	case OpBool:
		return func(vals []uint64) uint64 {
			if x(vals) != 0 {
				return 1
			}
			return 0
		}, nil
	case OpLNot:
		return func(vals []uint64) uint64 {
			if x(vals) == 0 {
				return 1
			}
			return 0
		}, nil
	case OpExtr:
		lo := e.Lo
		return func(vals []uint64) uint64 { return (x(vals) >> lo) & m }, nil
	}

	y, err := CompileSlots(e.Y, names)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case OpIte:
		y2, err := CompileSlots(e.Y2, names)
		if err != nil {
			return nil, err
		}
		return func(vals []uint64) uint64 {
			if x(vals) != 0 {
				return y(vals)
			}
			return y2(vals)
		}, nil
	case OpConcat:
		yw := e.Y.W
		return func(vals []uint64) uint64 { return (x(vals)<<yw | y(vals)) & m }, nil
	}
	op, w, opw := e.Op, e.W, e.X.W
	return func(vals []uint64) uint64 { return evalBin(op, w, opw, x(vals), y(vals)) }, nil
}
