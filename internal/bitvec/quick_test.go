package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// rawClone rebuilds e as a structurally identical but un-interned tree
// (hand-built struct literals, id 0), the way no production code
// constructs expressions. The interned-vs-raw property tests below pin
// that hash-consing is purely an identity optimisation: evaluation,
// simplification and rendering cannot tell the two apart.
func rawClone(e *Expr) *Expr {
	c := &Expr{
		Op: e.Op, W: e.W, Val: e.Val, Name: e.Name,
		Off: e.Off, Hi: e.Hi, Lo: e.Lo,
	}
	if e.X != nil {
		c.X = rawClone(e.X)
	}
	if e.Y != nil {
		c.Y = rawClone(e.Y)
	}
	if e.Y2 != nil {
		c.Y2 = rawClone(e.Y2)
	}
	return c
}

// TestQuickInternedVsRawEvaluation: an interned expression and its raw
// clone evaluate identically under random environments.
func TestQuickInternedVsRawEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		e := randExpr(rng, 5, propFields)
		raw := rawClone(e)
		if raw.ID() != 0 || e.ID() == 0 {
			t.Fatalf("iteration %d: clone interned (%d) or original not (%d)", i, raw.ID(), e.ID())
		}
		env := randEnv(rng)
		want, err1 := Eval(e, env)
		got, err2 := Eval(raw, env)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("iteration %d: interned %d (%v) != raw %d (%v) for %s",
				i, want, err1, got, err2, e)
		}
	}
}

// TestQuickInternedVsRawSimplify: Simplify of the raw clone and of the
// interned original produce the same expression (String-identical) with
// the same semantics — the memoised simplification path and the
// structural path agree.
func TestQuickInternedVsRawSimplify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		e := randExpr(rng, 5, propFields)
		raw := rawClone(e)
		se, sr := Simplify(e), Simplify(raw)
		if se.String() != sr.String() {
			t.Fatalf("iteration %d: Simplify diverges on %s:\n  interned: %s\n  raw:      %s",
				i, e, se, sr)
		}
		env := randEnv(rng)
		want, err1 := Eval(e, env)
		got, err2 := Eval(sr, env)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("iteration %d: raw Simplify changed semantics of %s: %d (%v) != %d (%v)",
				i, e, want, err1, got, err2)
		}
	}
}

// TestQuickInternedVsRawString: rendering is identical, and structural
// equality holds across the interned/raw boundary in both directions.
func TestQuickInternedVsRawString(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		e := randExpr(rng, 5, propFields)
		raw := rawClone(e)
		if e.String() != raw.String() {
			t.Fatalf("iteration %d: String diverges:\n  interned: %s\n  raw:      %s", i, e, raw)
		}
		if !Equal(e, raw) || !Equal(raw, e) {
			t.Fatalf("iteration %d: Equal(interned, raw) = false for %s", i, e)
		}
		if e.OpCount() != raw.OpCount() || e.Size() != raw.Size() {
			t.Fatalf("iteration %d: size metrics diverge for %s", i, e)
		}
	}
}

// TestQuickInterningCanonical: constructing the same expression twice
// yields the same pointer with the same stable ID, and the canonical
// Key of the interned node matches across constructions while
// differing from the raw clone's structural key only in spelling
// (both must be self-consistent).
func TestQuickInterningCanonical(t *testing.T) {
	rng1 := rand.New(rand.NewSource(17))
	rng2 := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		a := randExpr(rng1, 4, propFields)
		b := randExpr(rng2, 4, propFields)
		if a != b {
			t.Fatalf("iteration %d: identical construction not pointer-equal: %s", i, a)
		}
		if a.ID() == 0 || a.ID() != b.ID() {
			t.Fatalf("iteration %d: IDs diverge: %d vs %d", i, a.ID(), b.ID())
		}
		if a.Key() != b.Key() {
			t.Fatalf("iteration %d: canonical keys diverge", i)
		}
		raw := rawClone(a)
		if raw.Key() == a.Key() {
			t.Fatalf("iteration %d: raw structural key collides with ID key %q", i, a.Key())
		}
	}
}

// Property: extracting the two halves of a value and concatenating
// them reconstitutes the value, for every width split.
func TestQuickConcatExtractRoundTrip(t *testing.T) {
	prop := func(v uint64, split uint8) bool {
		k := split%62 + 1 // split point in [1, 62]
		w := uint8(64)
		x := Const(w, v)
		hi := Extract(w-1, k, x)
		lo := Extract(k-1, 0, x)
		got, err := Eval(Concat(hi, lo), MapEnv{})
		return err == nil && got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Simplify is semantics-preserving on the shift/mask/or
// endianness pattern for arbitrary field values and widths.
func TestQuickEndiannessPattern(t *testing.T) {
	prop := func(v uint16) bool {
		f := Field("f", 16, 0)
		lo := And(f, Const(16, 0x00FF))
		hi := LShr(And(f, Const(16, 0xFF00)), Const(16, 8))
		read := Or(Shl(hi, Const(16, 8)), lo)
		env := MapEnv{Fields: map[string]uint64{"f": uint64(v)}}
		a, err1 := Eval(read, env)
		b, err2 := Eval(Simplify(read), env)
		return err1 == nil && err2 == nil && a == b && a == uint64(v)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: masking commutes with evaluation — a Const holds exactly
// its masked value at every width.
func TestQuickConstMasking(t *testing.T) {
	prop := func(v uint64, w8 uint8) bool {
		w := w8%64 + 1
		c := Const(w, v)
		got, err := Eval(c, MapEnv{})
		return err == nil && got == v&Mask(w) && c.Val == v&Mask(w)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: zero extension then truncation is the identity.
func TestQuickZExtTruncIdentity(t *testing.T) {
	prop := func(v uint32) bool {
		x := Const(32, uint64(v))
		e := Trunc(32, ZExt(64, x))
		got, err := Eval(e, MapEnv{})
		return err == nil && got == uint64(v)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: sign extension agrees with Go's arithmetic.
func TestQuickSExtAgreesWithGo(t *testing.T) {
	prop := func(v int32) bool {
		x := Const(32, uint64(uint32(v)))
		got, err := Eval(SExt(64, x), MapEnv{})
		return err == nil && got == uint64(int64(v))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: the width-64 arithmetic ops agree with Go's uint64
// arithmetic.
func TestQuickArithAgreesWithGo(t *testing.T) {
	prop := func(a, b uint64) bool {
		x, y := Const(64, a), Const(64, b)
		checks := []struct {
			e    *Expr
			want uint64
		}{
			{Add(x, y), a + b},
			{Sub(x, y), a - b},
			{Mul(x, y), a * b},
			{And(x, y), a & b},
			{Or(x, y), a | b},
			{Xor(x, y), a ^ b},
		}
		if b != 0 {
			checks = append(checks,
				struct {
					e    *Expr
					want uint64
				}{UDiv(x, y), a / b},
				struct {
					e    *Expr
					want uint64
				}{URem(x, y), a % b})
		}
		for _, c := range checks {
			got, err := Eval(c.e, MapEnv{})
			if err != nil || got != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: OpCount of a Simplify result never exceeds rewriteBudget
// blowup and Simplify never changes the width.
func TestQuickSimplifyWidthStable(t *testing.T) {
	prop := func(v uint64, k uint8) bool {
		f := Field("f", 32, 0)
		e := Or(Shl(f, Const(32, uint64(k%40))), And(f, Const(32, v)))
		s := Simplify(e)
		return s.W == e.W
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCompileSlotsMatchesEval: a slot-compiled expression computes
// what Eval computes when each slot's field maps to its value.
func TestQuickCompileSlotsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		e := randExpr(rng, 5, propFields)
		names := e.Fields()
		eval, err := CompileSlots(e, names)
		if err != nil {
			t.Fatalf("iteration %d: %v for %s", i, err, e)
		}
		env := randEnv(rng)
		vals := make([]uint64, len(names))
		for j, n := range names {
			vals[j] = env.Fields[n]
		}
		want := evalOK(t, e, env)
		if got := eval(vals); got != want {
			t.Fatalf("iteration %d: slots %d != Eval %d for %s under %v", i, got, want, e, env.Fields)
		}
	}
}

// TestCompileSlotsRejectsUnboundLeaves: refs and fields outside names
// have no slot.
func TestCompileSlotsRejectsUnboundLeaves(t *testing.T) {
	a := Field("a", 16, 0)
	if _, err := CompileSlots(Add(a, Field("b", 16, 2)), []string{"a"}); err == nil {
		t.Error("field outside names compiled")
	}
	if _, err := CompileSlots(Add(a, Ref("r", 16)), []string{"a"}); err == nil {
		t.Error("ref compiled")
	}
}
