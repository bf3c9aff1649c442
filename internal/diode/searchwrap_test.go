package diode

import (
	"maps"
	"math/rand"
	"testing"

	"codephage/internal/apps"
	"codephage/internal/bitvec"
	"codephage/internal/hachoir"
)

var wrapFields = []*bitvec.Expr{
	bitvec.Field("w", 16, 0), bitvec.Field("h", 32, 2), bitvec.Field("c", 8, 6),
}

// randSize builds a random 32-bit size expression over wrapFields,
// mixing the operators Widen rewrites with ones it keeps.
func randSize(rng *rand.Rand, depth int) *bitvec.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) > 0 {
			f := wrapFields[rng.Intn(len(wrapFields))]
			if f.W < 32 {
				return bitvec.ZExt(32, f)
			}
			return f
		}
		return bitvec.Const(32, uint64(rng.Intn(1<<12)))
	}
	x, y := randSize(rng, depth-1), randSize(rng, depth-1)
	switch rng.Intn(14) {
	case 0:
		return bitvec.Add(x, y)
	case 1:
		return bitvec.Sub(x, y)
	case 2, 3:
		return bitvec.Mul(x, y)
	case 4:
		return bitvec.UDiv(x, y)
	case 5:
		return bitvec.URem(x, y)
	case 6:
		return []func(a, b *bitvec.Expr) *bitvec.Expr{bitvec.And, bitvec.Or, bitvec.Xor}[rng.Intn(3)](x, y)
	case 7:
		return bitvec.Shl(x, bitvec.Const(32, uint64(rng.Intn(34))))
	case 8:
		return bitvec.LShr(x, bitvec.Const(32, uint64(rng.Intn(34))))
	case 9:
		return bitvec.SExt(32, bitvec.Extract(15, 0, x))
	case 10:
		return bitvec.Concat(bitvec.Extract(15, 0, x), bitvec.Extract(15, 0, y))
	case 11:
		return bitvec.Ite(bitvec.Ult(x, y), x, y)
	case 12:
		return bitvec.AShr(x, bitvec.Const(32, uint64(rng.Intn(34))))
	default:
		return bitvec.ZExt(32, bitvec.Extract(7, 0, x))
	}
}

// TestSlotEvalMatchesEval: the slot evaluators searchWrap compiles for
// size and Widen(size) compute what bitvec.Eval computes over a MapEnv.
func TestSlotEvalMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5107))
	for i := 0; i < 1000; i++ {
		size := randSize(rng, 4)
		names := size.Fields()
		for _, e := range []*bitvec.Expr{size, Widen(size)} {
			eval, err := bitvec.CompileSlots(e, names)
			if err != nil {
				t.Fatalf("iteration %d: %v for %s", i, err, e)
			}
			for k := 0; k < 4; k++ {
				env := bitvec.MapEnv{Fields: map[string]uint64{}}
				vals := make([]uint64, len(names))
				for j, n := range names {
					vals[j] = rng.Uint64() >> rng.Intn(64)
					env.Fields[n] = vals[j]
				}
				want, err := bitvec.Eval(e, env)
				if err != nil {
					t.Fatal(err)
				}
				if got := eval(vals); got != want {
					t.Fatalf("iteration %d: slots %d != Eval %d for %s under %v", i, got, want, e, env.Fields)
				}
			}
		}
	}
}

// seededEnv reads a probe's assignment first and the seed's field
// values second: the environment the search evaluated probes in before
// it moved to slot arrays.
type seededEnv struct{ assign, seed map[string]uint64 }

func (e seededEnv) FieldValue(name string) (uint64, bool) {
	if v, ok := e.assign[name]; ok {
		return v, true
	}
	v, ok := e.seed[name]
	return v, ok
}

func (seededEnv) RefValue(string) (uint64, bool) { return 0, false }

// referenceSearchWrap is searchWrap written directly over maps and
// bitvec.Eval: a fresh assignment map per probe, each evaluated under
// the seed's field values.
func referenceSearchWrap(size *bitvec.Expr, dis *hachoir.Dissection, seed []byte, maxWrapped uint64, rng *rand.Rand) []candidate {
	const maxCandidates = 64
	seedVals := dis.FieldValues(seed)
	names := size.Fields()
	if len(names) == 0 || len(names) > 6 {
		return nil
	}
	widths := map[string]uint8{}
	size.Walk(func(n *bitvec.Expr) {
		if n.Op == bitvec.OpField {
			widths[n.Name] = n.W
		}
	})
	wide := Widen(size)
	var found []candidate
	try := func(assign map[string]uint64) {
		env := seededEnv{assign: assign, seed: seedVals}
		nv, err1 := bitvec.Eval(size, env)
		wv, err2 := bitvec.Eval(wide, env)
		if err1 == nil && err2 == nil && nv != wv && nv > 0 && nv < maxWrapped {
			found = append(found, candidate{assign: assign, narrow: nv, wide: wv})
		}
	}
	corners := func(name string) []uint64 {
		w := widths[name]
		m := bitvec.Mask(w)
		out := []uint64{seedVals[name], m, m - 1, m >> 1, m>>1 + 1, m - 255,
			1 << (w - 1), 4, 3, 2, 1}
		for i := range out {
			out[i] &= m
		}
		return out
	}
	total := 1
	for _, n := range names {
		total *= len(corners(n))
		if total >= 1<<16 {
			total = 1 << 16
			break
		}
	}
	for idx := 0; idx < total && len(found) < maxCandidates; idx++ {
		assign := map[string]uint64{}
		rem := idx
		for _, n := range names {
			cs := corners(n)
			assign[n] = cs[rem%len(cs)]
			rem /= len(cs)
		}
		try(assign)
	}
	for i := 0; i < 30000 && len(found) < maxCandidates; i++ {
		assign := map[string]uint64{}
		for _, n := range names {
			if i%2 == 1 && rng.Intn(2) == 0 {
				assign[n] = seedVals[n]
			} else {
				assign[n] = rng.Uint64() & bitvec.Mask(widths[n])
			}
		}
		try(assign)
	}
	return found
}

// TestSearchWrapOrderPinned: at every allocation site DIODE searches
// for a Figure-8 overflow target, searchWrap returns the reference's
// candidates in the reference's order and leaves the probe stream at
// the same point, so discovered inputs cannot drift.
func TestSearchWrapOrderPinned(t *testing.T) {
	for _, tgt := range apps.Targets() {
		if tgt.Kind != apps.Overflow {
			continue
		}
		app, err := apps.ByName(tgt.Recipient)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := apps.Build(app)
		if err != nil {
			t.Fatal(err)
		}
		dis := dissect(t, tgt.Format, tgt.Seed)
		allocs, _ := TaintedAllocSites(mod, tgt.Seed, dis, 0)
		searched := 0
		for ai, a := range allocs {
			if mod.Funcs[a.Fn].Name != tgt.VulnFn {
				continue
			}
			searched++
			rngSeed := 0xD10DE + int64(ai)*0x9E3779B9
			gotRNG := rand.New(rand.NewSource(rngSeed))
			wantRNG := rand.New(rand.NewSource(rngSeed))
			got := searchWrap(a.SizeExpr, dis, tgt.Seed, 1<<20, gotRNG)
			want := referenceSearchWrap(a.SizeExpr, dis, tgt.Seed, 1<<20, wantRNG)
			site := tgt.Recipient + "/" + tgt.ID
			if len(got) != len(want) {
				t.Fatalf("%s site %d: %d candidates, reference %d", site, ai, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.narrow != w.narrow || g.wide != w.wide || !maps.Equal(g.assign, w.assign) {
					t.Fatalf("%s site %d candidate %d: got %v (%d/%d), reference %v (%d/%d)",
						site, ai, i, g.assign, g.narrow, g.wide, w.assign, w.narrow, w.wide)
				}
			}
			if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
				t.Fatalf("%s site %d: probe stream diverged after the search", site, ai)
			}
		}
		if searched == 0 {
			t.Fatalf("%s/%s: no tainted allocation site in %s", tgt.Recipient, tgt.ID, tgt.VulnFn)
		}
	}
}
