// Package fuzz implements the field-aware mutation fuzzing that the
// paper uses to obtain seed and error-triggering inputs for the
// out-of-bounds errors (JasPer, gif2tiff) and to derive seeds from
// CVE-reported error inputs (Wireshark). Mutations are applied one
// dissected field at a time (corner values), then as random byte
// flips, and every candidate is confirmed by execution under memcheck.
package fuzz

import (
	"math/rand"

	"codephage/internal/bitvec"
	"codephage/internal/diode"
	"codephage/internal/hachoir"
	"codephage/internal/ir"
	"codephage/internal/vm"
)

// DefaultRandSeed is the campaign RNG seed a zero-value Options maps
// to, so two zero-value campaigns on the same module are reproducibly
// identical — byte for byte, including the crash input found.
const DefaultRandSeed = 0xF0552

// Options configures a fuzzing campaign.
type Options struct {
	MaxSteps  int64
	MaxRandom int // random byte-flip candidates (default 2000)
	// RandSeed seeds the random byte-flip phase (0 = DefaultRandSeed).
	RandSeed int64
}

// rng returns the campaign RNG. The zero value is not a distinct
// seed: it resolves to DefaultRandSeed, and an explicit seed is used
// as-is, so a campaign's exploration order is pinned by the seed the
// caller can log and replay.
func (o Options) rng() *rand.Rand {
	seed := o.RandSeed
	if seed == 0 {
		seed = DefaultRandSeed
	}
	return rand.New(rand.NewSource(seed))
}

// Crash is a fuzzing result: an input that traps the application.
type Crash struct {
	Input []byte
	Trap  *vm.Trap
}

// Find searches for an input derived from the seed that crashes the
// module. It returns nil if the campaign finds nothing.
func Find(mod *ir.Module, seed []byte, dis *hachoir.Dissection, opts Options) *Crash {
	runner := vm.NewRunner(mod)
	runner.MaxSteps = opts.MaxSteps
	run := func(input []byte) *vm.Trap {
		r := runner.Run(input)
		if r.Trap != nil && r.Trap.Kind != vm.TrapStepLimit {
			return r.Trap
		}
		return nil
	}

	// Phase 1: per-field corner values, including a small-integer sweep
	// that hits exact off-by-one boundaries (JasPer's tileno == count).
	if dis != nil {
		for _, f := range dis.Fields {
			w := uint8(f.Size * 8)
			m := bitvec.Mask(w)
			corners := []uint64{0, 1, m, m - 1, m >> 1, m>>1 + 1, 13, 1 << (w - 1)}
			for s := uint64(2); s <= 16; s++ {
				corners = append(corners, s)
			}
			for _, c := range corners {
				input := diode.MutateFields(seed, dis, map[string]uint64{f.Path: c & m})
				if tr := run(input); tr != nil {
					return &Crash{Input: input, Trap: tr}
				}
			}
		}
		// Phase 2: pairs of fields at corners (small budget).
		for i := range dis.Fields {
			for j := i + 1; j < len(dis.Fields); j++ {
				fi, fj := dis.Fields[i], dis.Fields[j]
				mi := bitvec.Mask(uint8(fi.Size * 8))
				mj := bitvec.Mask(uint8(fj.Size * 8))
				for _, ci := range []uint64{0, mi, mi >> 1} {
					for _, cj := range []uint64{0, mj, mj >> 1} {
						input := diode.MutateFields(seed, dis, map[string]uint64{
							fi.Path: ci, fj.Path: cj,
						})
						if tr := run(input); tr != nil {
							return &Crash{Input: input, Trap: tr}
						}
					}
				}
			}
		}
	}

	// Phase 3: random byte flips.
	maxRand := opts.MaxRandom
	if maxRand == 0 {
		maxRand = 2000
	}
	rng := opts.rng()
	for i := 0; i < maxRand && len(seed) > 0; i++ {
		input := append([]byte(nil), seed...)
		flips := 1 + rng.Intn(4)
		for f := 0; f < flips; f++ {
			input[rng.Intn(len(input))] ^= byte(1 + rng.Intn(255))
		}
		if tr := run(input); tr != nil {
			return &Crash{Input: input, Trap: tr}
		}
	}
	return nil
}

// DeriveSeed searches for a non-crashing input close to an
// error-triggering input — the paper's Wireshark methodology, where
// the CVE supplies the error input and a corresponding seed must be
// constructed. It mutates each dissected field toward benign corner
// values until the application processes the input successfully.
func DeriveSeed(mod *ir.Module, errorInput []byte, dis *hachoir.Dissection, opts Options) []byte {
	runner := vm.NewRunner(mod)
	runner.MaxSteps = opts.MaxSteps
	ok := func(input []byte) bool {
		r := runner.Run(input)
		return r.OK() && r.ExitCode == 0
	}
	if ok(errorInput) {
		return errorInput
	}
	if dis != nil {
		for _, f := range dis.Fields {
			for _, c := range []uint64{1, 2, 16, 255} {
				input := diode.MutateFields(errorInput, dis, map[string]uint64{f.Path: c})
				if ok(input) {
					return input
				}
			}
		}
		// Pairs.
		for i := range dis.Fields {
			for j := i + 1; j < len(dis.Fields); j++ {
				input := diode.MutateFields(errorInput, dis, map[string]uint64{
					dis.Fields[i].Path: 1, dis.Fields[j].Path: 16,
				})
				if ok(input) {
					return input
				}
			}
		}
	}
	return nil
}
