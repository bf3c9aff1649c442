// Package diode reimplements the role of the DIODE integer-overflow
// discovery system (Sidiroglou-Douskos et al., ASPLOS 2015) for the
// Code Phage pipeline: given an application and a seed input, it finds
// inputs that cause the size computation at a memory allocation site to
// overflow its 32-bit evaluation, producing the seed/error input pairs
// that drive patch transfer, and re-scans patched binaries for residual
// errors (driving CP's multi-patch recursion).
//
// The original DIODE performs goal-directed branch enforcement with an
// SMT solver over extracted path constraints. This implementation
// keeps DIODE's observable behaviour — taint the allocation-site size
// expression, solve for field values that wrap it, mutate the seed,
// confirm the error by re-execution — but searches the (small) field
// corner space concretely instead of solving path constraints, which
// suffices for header-field-driven allocation sizes.
package diode

import (
	"fmt"
	"math/rand"
	"slices"

	"codephage/internal/bitvec"
	"codephage/internal/hachoir"
	"codephage/internal/ir"
	"codephage/internal/smt"
	"codephage/internal/taint"
	"codephage/internal/vm"
)

// Finding is one discovered integer-overflow error.
type Finding struct {
	Input    []byte // the error-triggering input
	Fn       int32  // allocation site
	PC       int32
	Line     int32
	FnName   string
	SizeExpr *bitvec.Expr      // symbolic allocation size (32-bit)
	Fields   map[string]uint64 // field assignment that wraps the size
	Narrow   uint64            // wrapped 32-bit size under Fields
	Wide     uint64            // true 64-bit size under Fields
	Trap     *vm.Trap          // the confirming trap
}

func (f *Finding) String() string {
	return fmt.Sprintf("overflow at %s+%d (line %d): size wraps to %d (true %d)",
		f.FnName, f.PC, f.Line, f.Narrow, f.Wide)
}

// Options configures discovery.
type Options struct {
	// VulnFn restricts allocation sites to the named function ("" =
	// all sites). Requires an unstripped module.
	VulnFn string
	// MaxSteps bounds each VM run.
	MaxSteps int64
	// MaxWrapped is the largest wrapped size considered (must remain
	// allocatable so the downstream out-of-bounds write manifests).
	MaxWrapped uint64
	// Seed for the random probe stream.
	RandSeed int64
	// Service is the shared constraint service used to prove
	// un-wrappable allocation sites unsatisfiable before the concrete
	// search runs (nil = the process-wide smt.Default()). Verdicts are
	// memoised per size expression, so residual rescans of patched
	// builds — which re-taint the same allocation sites every round —
	// skip straight past sites proven overflow-free.
	Service *smt.Service
}

func (o *Options) maxWrapped() uint64 {
	if o.MaxWrapped > 0 {
		return o.MaxWrapped
	}
	return 1 << 20
}

func (o *Options) service() *smt.Service {
	if o.Service != nil {
		return o.Service
	}
	return smt.Default()
}

// prefilterConflictBudget bounds each per-site unsatisfiability proof.
const prefilterConflictBudget = 4000

// Widen rewrites a size expression to compute without 32-bit wrapping:
// leaves are zero-extended to 64 bits and arithmetic happens at width
// 64, while explicit truncations/extracts retain their masking. The
// overflow condition is Widen(e) != ZExt64(e).
func Widen(e *bitvec.Expr) *bitvec.Expr {
	switch e.Op {
	case bitvec.OpConst:
		return bitvec.Const(64, e.Val)
	case bitvec.OpField:
		return bitvec.ZExt(64, bitvec.Field(e.Name, e.W, e.Off))
	case bitvec.OpZExt:
		return Widen(e.X)
	case bitvec.OpSExt:
		// Sign extension of a narrower value: evaluate the inner value
		// at its own width, then sign-extend within 64 bits.
		inner := narrowTo(Widen(e.X), e.X.W)
		if e.X.W == 64 {
			return inner
		}
		sign := bitvec.Extract(e.X.W-1, e.X.W-1, inner)
		ones := bitvec.Const(64, ^uint64(0)<<e.X.W)
		extended := bitvec.Or(inner, ones)
		return bitvec.Ite(bitvec.BoolOf(sign), extended, inner)
	case bitvec.OpExtr:
		inner := narrowTo(Widen(e.X), e.X.W)
		shifted := bitvec.LShr(inner, bitvec.Const(64, uint64(e.Lo)))
		return bitvec.And(shifted, bitvec.Const(64, bitvec.Mask(e.W)))
	case bitvec.OpAdd, bitvec.OpSub, bitvec.OpMul, bitvec.OpUDiv,
		bitvec.OpURem, bitvec.OpAnd, bitvec.OpOr, bitvec.OpXor,
		bitvec.OpShl, bitvec.OpLShr:
		x, y := Widen(e.X), Widen(e.Y)
		return rebuildBin(e.Op, x, y)
	case bitvec.OpConcat:
		hi := narrowTo(Widen(e.X), e.X.W)
		lo := narrowTo(Widen(e.Y), e.Y.W)
		sh := bitvec.Shl(hi, bitvec.Const(64, uint64(e.Y.W)))
		return bitvec.Or(sh, lo)
	}
	// Comparisons, Ite, everything else: keep original semantics and
	// zero-extend (these cannot overflow).
	return bitvec.ZExt(64, e)
}

func narrowTo(wide *bitvec.Expr, w uint8) *bitvec.Expr {
	if w >= 64 {
		return wide
	}
	return bitvec.And(wide, bitvec.Const(64, bitvec.Mask(w)))
}

func rebuildBin(op bitvec.Op, x, y *bitvec.Expr) *bitvec.Expr {
	switch op {
	case bitvec.OpAdd:
		return bitvec.Add(x, y)
	case bitvec.OpSub:
		return bitvec.Sub(x, y)
	case bitvec.OpMul:
		return bitvec.Mul(x, y)
	case bitvec.OpUDiv:
		return bitvec.UDiv(x, y)
	case bitvec.OpURem:
		return bitvec.URem(x, y)
	case bitvec.OpAnd:
		return bitvec.And(x, y)
	case bitvec.OpOr:
		return bitvec.Or(x, y)
	case bitvec.OpXor:
		return bitvec.Xor(x, y)
	case bitvec.OpShl:
		return bitvec.Shl(x, y)
	case bitvec.OpLShr:
		return bitvec.LShr(x, y)
	}
	panic("diode: rebuildBin: bad op")
}

// OverflowCond returns the width-1 condition "the 32-bit evaluation of
// size wraps and the wrapped value stays below maxWrapped" — the goal
// DIODE directs its input search toward, and the condition the patch
// validation phase proves unsatisfiable under a transferred check.
func OverflowCond(size *bitvec.Expr, maxWrapped uint64) *bitvec.Expr {
	wide := Widen(size)
	narrow := bitvec.ZExt(64, size)
	wraps := bitvec.Ne(narrow, wide)
	small := bitvec.Ult(narrow, bitvec.Const(64, maxWrapped))
	nonzero := bitvec.Ne(narrow, bitvec.Const(64, 0))
	and1 := bitvec.And(wraps, small)
	return bitvec.And(and1, nonzero)
}

// TaintedAllocSites runs the module on the input under the taint
// tracker and returns the allocation records whose sizes depend on
// input bytes.
func TaintedAllocSites(mod *ir.Module, input []byte, dis *hachoir.Dissection, maxSteps int64) ([]taint.AllocRecord, *vm.Result) {
	tr := taint.NewTracker(mod, taint.Options{Labels: dis})
	v := vm.New(mod, input)
	v.Tracer = tr
	v.MaxSteps = maxSteps
	res := v.Run()
	var out []taint.AllocRecord
	for _, a := range tr.Allocs() {
		if a.SizeExpr != nil {
			out = append(out, a)
		}
	}
	return out, res
}

// Discover searches for an input that triggers an integer-overflow
// error at an allocation site of the module. It returns nil (no error)
// when no overflow-triggering input can be found — the signal that a
// patched recipient has no residual errors.
func Discover(mod *ir.Module, seed []byte, dis *hachoir.Dissection, opts Options) (*Finding, error) {
	allocs, res := TaintedAllocSites(mod, seed, dis, opts.MaxSteps)
	if !res.OK() {
		return nil, fmt.Errorf("diode: seed input already crashes: %v", res.Trap)
	}
	session := opts.service().Session()
	// The prefilter proof gets a small conflict budget: cheap UNSAT
	// proofs (narrow fields, masked sizes) land well inside it, while
	// hard ones exhaust it, skip the memo, and fall through to the
	// concrete search — so a cold site never costs more than a
	// bounded solver call on top of what the search already paid.
	session.MaxConflicts = prefilterConflictBudget

	// One runner confirms every candidate of every site. It is made on
	// the first candidate: a rescan whose sites are all proven
	// overflow-free runs none.
	var runner *vm.Runner
	for ai, a := range allocs {
		fnName := mod.Funcs[a.Fn].Name
		if opts.VulnFn != "" && fnName != opts.VulnFn {
			continue
		}
		// Solver prefilter: a site whose overflow condition is
		// unsatisfiable cannot wrap for any field assignment, so the
		// concrete corner/random search below would come up empty —
		// skip it. The verdict is memoised in the shared service, so
		// every rescan round and every batch task re-observing this
		// site answers in O(1). Sat or budget-exhausted verdicts fall
		// through to the search unchanged; with the probe stream
		// seeded per site (below), the skip is output-neutral: it only
		// elides provably empty searches and never perturbs another
		// site's candidates.
		cond := OverflowCond(a.SizeExpr, opts.maxWrapped())
		if sat, _, err := session.Sat(cond); err == nil && !sat {
			continue
		}
		rng := rand.New(rand.NewSource(opts.RandSeed + 0xD10DE + int64(ai)*0x9E3779B9))
		for _, cand := range searchWrap(a.SizeExpr, dis, seed, opts.maxWrapped(), rng) {
			input := MutateFields(seed, dis, cand.assign)
			if runner == nil {
				runner = vm.NewRunner(mod)
				runner.MaxSteps = opts.MaxSteps
			}
			r := runner.Run(input)
			if r.OK() || r.Trap.Kind == vm.TrapStepLimit {
				continue // wrapped but did not manifest; try other candidates
			}
			return &Finding{
				Input: input, Fn: a.Fn, PC: a.PC, Line: a.Line, FnName: fnName,
				SizeExpr: a.SizeExpr, Fields: cand.assign,
				Narrow: cand.narrow, Wide: cand.wide, Trap: r.Trap,
			}, nil
		}
	}
	return nil, nil
}

// candidate is one field assignment that wraps a size expression.
type candidate struct {
	assign map[string]uint64
	narrow uint64
	wide   uint64
}

// searchWrap collects field assignments wrapping the size expression:
// corner-value enumeration (including each field's seed value, so
// validated fields like component counts can stay legal) followed by
// random probing. Non-size fields keep their seed values.
//
// Probes run over a slot array in names order: size and Widen(size)
// are compiled once, each field's corner table is built once, and a map
// assignment is built only for an accepted candidate. Both evaluators
// read only the fields in names, all of which every probe sets, so the
// seed values of the other fields never enter a probe.
func searchWrap(size *bitvec.Expr, dis *hachoir.Dissection, seed []byte, maxWrapped uint64, rng *rand.Rand) []candidate {
	const maxCandidates = 64
	names := size.Fields()
	if len(names) == 0 || len(names) > 6 {
		return nil
	}
	narrowOf, err1 := bitvec.CompileSlots(size, names)
	wideOf, err2 := bitvec.CompileSlots(Widen(size), names)
	if err1 != nil || err2 != nil {
		return nil
	}
	seedVals := dis.FieldValues(seed)
	seeds := make([]uint64, len(names))
	for i, n := range names {
		seeds[i] = seedVals[n]
	}
	widths := make([]uint8, len(names))
	size.Walk(func(n *bitvec.Expr) {
		if n.Op == bitvec.OpField {
			widths[slices.Index(names, n.Name)] = n.W
		}
	})
	corners := make([][]uint64, len(names))
	for i, w := range widths {
		m := bitvec.Mask(w)
		cs := []uint64{seeds[i], m, m - 1, m >> 1, m>>1 + 1, m - 255,
			1 << (w - 1), 4, 3, 2, 1}
		for j := range cs {
			cs[j] &= m
		}
		corners[i] = cs
	}

	var found []candidate
	vals := make([]uint64, len(names))
	try := func() {
		nv, wv := narrowOf(vals), wideOf(vals)
		if nv != wv && nv > 0 && nv < maxWrapped {
			assign := make(map[string]uint64, len(names))
			for i, n := range names {
				assign[n] = vals[i]
			}
			found = append(found, candidate{assign: assign, narrow: nv, wide: wv})
		}
	}

	// Corner product enumeration, capped.
	total := 1
	for _, cs := range corners {
		total *= len(cs)
		if total >= 1<<16 {
			total = 1 << 16
			break
		}
	}
	for idx := 0; idx < total && len(found) < maxCandidates; idx++ {
		rem := idx
		for i, cs := range corners {
			vals[i] = cs[rem%len(cs)]
			rem /= len(cs)
		}
		try()
	}
	// Random probing: full-random and seed-anchored (mutate a subset).
	for i := 0; i < 30000 && len(found) < maxCandidates; i++ {
		for j, w := range widths {
			if i%2 == 1 && rng.Intn(2) == 0 {
				vals[j] = seeds[j]
			} else {
				vals[j] = rng.Uint64() & bitvec.Mask(w)
			}
		}
		try()
	}
	return found
}

// MutateFields writes field values into a copy of the input according
// to the dissection's offsets and endianness.
func MutateFields(input []byte, dis *hachoir.Dissection, assign map[string]uint64) []byte {
	out := append([]byte(nil), input...)
	for name, val := range assign {
		f, ok := dis.FieldByPath(name)
		if !ok {
			continue
		}
		for i := 0; i < f.Size; i++ {
			var b byte
			if f.BigEndian {
				b = byte(val >> (8 * uint(f.Size-1-i)))
			} else {
				b = byte(val >> (8 * uint(i)))
			}
			if f.Off+i < len(out) {
				out[f.Off+i] = b
			}
		}
	}
	return out
}
