// This file implements the Discover stage primitives: donor
// selection, candidate check discovery and check excision (§3.2),
// over the MVX/MiniC substrate.
package pipeline

import (
	"fmt"
	"sort"

	"codephage/internal/bitvec"
	"codephage/internal/hachoir"
	"codephage/internal/ir"
	"codephage/internal/taint"
	"codephage/internal/vm"
)

// Check is one candidate check excised from the donor: a width-1
// predicate over input fields that holds on the seed input and fails
// on the error-triggering input.
type Check struct {
	Site      taint.Site
	Seq       int          // first-occurrence order in the error run
	Cond      *bitvec.Expr // simplified check (Figure 5 rules applied)
	Raw       *bitvec.Expr // check as recorded, before simplification
	SeedTaken bool         // direction the seed input takes at the branch
}

// Discovery summarises the donor analysis (the Relevant Branches and
// Flipped Branches columns of Figure 8).
type Discovery struct {
	RelevantSites int // branch sites influenced by relevant bytes
	FlippedSites  int // sites whose direction differs between runs
	Checks        []Check
}

// runTainted executes a module under the taint tracker.
func runTainted(mod *ir.Module, input []byte, dis *hachoir.Dissection, relevant map[int]bool, noSimplify bool) (*taint.Tracker, *vm.Result) {
	tr := taint.NewTracker(mod, taint.Options{
		Labels: dis, Relevant: relevant, NoSimplify: noSimplify,
	})
	v := vm.New(mod, input)
	v.Tracer = tr
	return tr, v.Run()
}

// DiscoverChecks runs the donor on the seed and error-triggering
// inputs, compares branch directions, and excises a candidate check
// from every flipped branch (paper §3.2). The donor may be stripped —
// only executed branch sites and symbolic conditions are used.
func DiscoverChecks(donor *ir.Module, seed, errIn []byte, dis *hachoir.Dissection, relevant map[int]bool, noSimplify bool) (*Discovery, error) {
	seedTr, seedRes := runTainted(donor, seed, dis, relevant, noSimplify)
	if !seedRes.OK() {
		return nil, fmt.Errorf("phage: donor crashes on the seed input: %v", seedRes.Trap)
	}
	errTr, errRes := runTainted(donor, errIn, dis, relevant, noSimplify)
	if !errRes.OK() {
		return nil, fmt.Errorf("phage: donor crashes on the error input: %v", errRes.Trap)
	}

	type siteInfo struct {
		firstSeed bool // direction of the first execution
		firstErr  bool
		seenSeed  bool
		seenErr   bool
		errCond   *bitvec.Expr
		errRaw    *bitvec.Expr
		errSeq    int
	}
	sites := map[taint.Site]*siteInfo{}
	get := func(s taint.Site) *siteInfo {
		si, ok := sites[s]
		if !ok {
			si = &siteInfo{}
			sites[s] = si
		}
		return si
	}
	for _, b := range seedTr.Branches() {
		si := get(b.SiteOf())
		if !si.seenSeed {
			si.seenSeed, si.firstSeed = true, b.Taken
		}
	}
	for i := range errTr.Branches() {
		b := &errTr.Branches()[i]
		si := get(b.SiteOf())
		if !si.seenErr {
			si.seenErr, si.firstErr = true, b.Taken
			si.errCond, si.errRaw, si.errSeq = b.Cond, b.Raw, b.Seq
		}
	}

	d := &Discovery{RelevantSites: len(sites)}
	for site, si := range sites {
		// A flipped branch must execute in both runs with different
		// first directions (paper: "branches that take different
		// directions for the seed and error-triggering inputs").
		if !si.seenSeed || !si.seenErr || si.firstSeed == si.firstErr {
			continue
		}
		d.FlippedSites++
		// Excise: orient the condition so the seed passes.
		cond, raw := si.errCond, si.errRaw
		if !si.firstSeed {
			cond = bitvec.Simplify(bitvec.LNot(cond))
			raw = bitvec.LNot(raw)
		}
		d.Checks = append(d.Checks, Check{
			Site: site, Seq: si.errSeq, Cond: cond, Raw: raw, SeedTaken: si.firstSeed,
		})
	}
	sort.Slice(d.Checks, func(i, j int) bool { return d.Checks[i].Seq < d.Checks[j].Seq })
	return d, nil
}

// SelectDonors filters a donor database down to the applications that
// process both the seed and the error-triggering input successfully
// (paper §3.1).
func SelectDonors(db []*ir.Module, seed, errIn []byte) []*ir.Module {
	var out []*ir.Module
	for _, donor := range db {
		r := vm.NewRunner(donor)
		if r.Run(seed).OK() && r.Run(errIn).OK() {
			out = append(out, donor)
		}
	}
	return out
}
