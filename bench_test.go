// Package codephage's root benchmark harness regenerates the paper's
// evaluation: one benchmark per Figure 8 donor/recipient row (the full
// pipeline: error discovery input in hand, then donor analysis, check
// excision, insertion point identification, translation, validation,
// and DIODE residual re-scans), plus the ablation benchmarks for the
// design choices DESIGN.md calls out (D2: solver cache and
// disjointness prefilter; D3: the Figure 5 rewrite rules).
//
// Run with: go test -bench=. -benchmem
package codephage

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"codephage/internal/apps"
	"codephage/internal/bitvec"
	"codephage/internal/compile"
	"codephage/internal/corpus"
	"codephage/internal/figure8"
	"codephage/internal/hachoir"
	"codephage/internal/phage"
	"codephage/internal/pipeline"
	"codephage/internal/server"
	"codephage/internal/smt"
	"codephage/internal/taint"
	"codephage/internal/telemetry"
	"codephage/internal/vm"
)

// skipInShort keeps the benchmarks out of short-mode test jobs (the
// CI test step runs with -short; benchmarks belong to the bench step).
func skipInShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("benchmark skipped in short mode")
	}
}

// benchRow runs one Figure 8 row repeatedly. The error-triggering
// input is discovered once outside the timed loop (the paper's
// generation times likewise exclude DIODE's initial discovery).
func benchRow(b *testing.B, recipient, target, donor string) {
	tgt, err := apps.TargetByID(recipient, target)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := figure8.NewTransfer(tgt, donor, phage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tr.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.UsedChecks() < 1 {
			b.Fatal("no checks transferred")
		}
	}
}

// BenchmarkFigure8 has one sub-benchmark per table row.
func BenchmarkFigure8(b *testing.B) {
	skipInShort(b)
	for _, tgt := range apps.Targets() {
		for _, donor := range tgt.Donors {
			name := fmt.Sprintf("%s_%s_from_%s",
				tgt.Recipient, sanitize(tgt.ID), donor)
			tgt, donor := tgt, donor
			b.Run(name, func(b *testing.B) {
				benchRow(b, tgt.Recipient, tgt.ID, donor)
			})
		}
	}
}

func sanitize(s string) string {
	r := strings.NewReplacer(".", "_", "@", "_", "/", "_")
	return r.Replace(s)
}

// TestFigure8Table prints the regenerated Figure 8 (also recorded in
// EXPERIMENTS.md). It lives here so `go test` at the module root
// reproduces the headline table.
func TestFigure8Table(t *testing.T) {
	rows := figure8.AllRows(phage.Options{})
	t.Logf("\n%s", figure8.FormatTable(rows))
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s/%s <- %s failed: %v", r.Recipient, r.Target, r.Donor, r.Err)
		}
	}
}

// ---- Ablation D2: the solver query cache and the input-byte
// disjointness prefilter (paper §3.3: together an order of magnitude
// in translation time). Measured on the translation-heavy CWebP <-
// viewnior row, which exercises the division-based check.

func benchAblationSolver(b *testing.B, disableMemo, disablePrefilter bool) {
	tgt, err := apps.TargetByID("cwebp", "jpegdec.c@248")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := figure8.NewTransfer(tgt, "viewnior", phage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh service per iteration keeps the ablation honest: the
		// measured run never rides a memo warmed by a previous one.
		tr.Opts.Service = smt.NewService(smt.Config{
			DisableMemo:      disableMemo,
			DisablePrefilter: disablePrefilter,
		})
		if _, err := tr.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	skipInShort(b)
	b.Run("SolverCacheAndPrefilter_on", func(b *testing.B) {
		benchAblationSolver(b, false, false)
	})
	b.Run("SolverCache_off", func(b *testing.B) {
		benchAblationSolver(b, true, false)
	})
	b.Run("SolverPrefilter_off", func(b *testing.B) {
		benchAblationSolver(b, false, true)
	})
	b.Run("SolverBoth_off", func(b *testing.B) {
		benchAblationSolver(b, true, true)
	})

	// Ablation D3: the Figure 5 bit-manipulation rewrite rules. With
	// them disabled the recorded donor conditions keep their raw
	// shift/mask/or structure, which the equivalence queries then have
	// to chew through.
	b.Run("RewriteRules_on", func(b *testing.B) {
		benchRewriteAblation(b, false)
	})
	b.Run("RewriteRules_off", func(b *testing.B) {
		benchRewriteAblation(b, true)
	})
}

func benchRewriteAblation(b *testing.B, noSimplify bool) {
	tgt, err := apps.TargetByID("cwebp", "jpegdec.c@248")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := figure8.NewTransfer(tgt, "feh", phage.Options{NoSimplify: noSimplify})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRewriteRulesShrinkExcisedChecks quantifies ablation D3 directly:
// the Figure 5 rules must shrink the excised FEH check (the paper's
// Section 2 expression collapses from dozens of operations to four).
func TestRewriteRulesShrinkExcisedChecks(t *testing.T) {
	tgt, err := apps.TargetByID("cwebp", "jpegdec.c@248")
	if err != nil {
		t.Fatal(err)
	}
	errIn, err := figure8.ErrorInputFor(tgt)
	if err != nil {
		t.Fatal(err)
	}
	donorApp, _ := apps.ByName("feh")
	donor, err := apps.BuildDonorBinary(donorApp)
	if err != nil {
		t.Fatal(err)
	}
	dis := hDissect(t, "mjpg", tgt.Seed)
	relevant := dis.DiffFields(tgt.Seed, errIn)
	// Record once with and once without the Figure 5 rules.
	sizes := map[bool]int{}
	for _, noSimplify := range []bool{false, true} {
		disc, err := phage.DiscoverChecks(donor, tgt.Seed, errIn, dis, relevant, noSimplify)
		if err != nil {
			t.Fatal(err)
		}
		if len(disc.Checks) == 0 {
			t.Fatal("no checks")
		}
		sizes[noSimplify] = disc.Checks[0].Cond.OpCount()
	}
	if sizes[false] >= sizes[true] {
		t.Errorf("Figure 5 rules do not shrink the check: with=%d without=%d",
			sizes[false], sizes[true])
	}
	t.Logf("excised check size: %d ops with Figure 5 rules, %d without",
		sizes[false], sizes[true])
}

// hDissect dissects an input with the named format dissector.
func hDissect(tb testing.TB, format string, input []byte) *hachoir.Dissection {
	tb.Helper()
	d, ok := hachoir.ByName(format)
	if !ok {
		tb.Fatalf("no dissector %q", format)
	}
	dis, err := d.Dissect(input)
	if err != nil {
		tb.Fatal(err)
	}
	return dis
}

// TestSolverCacheEffect quantifies ablation D2's cache: repeated
// equivalence queries during a transfer must hit the shared memo.
func TestSolverCacheEffect(t *testing.T) {
	tgt, err := apps.TargetByID("dillo", "png.c@203")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := figure8.NewTransfer(tgt, "feh", phage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := smt.NewService(smt.Config{})
	tr.Opts.Service = svc
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := res.SolverStats
	t.Logf("solver stats: %+v, service: %+v", st, svc.Stats())
	if st.Queries == 0 {
		t.Fatal("no solver queries issued")
	}
	if st.CacheHits == 0 && st.Prefiltered == 0 {
		t.Error("neither the memo nor the prefilter fired during a full transfer")
	}
}

// TestFirstFlippedBranchSuffices verifies the paper's observation that
// the transferred check always comes from the first flipped branch.
func TestFirstFlippedBranchSuffices(t *testing.T) {
	rows := figure8.AllRows(phage.Options{})
	for _, r := range rows {
		if r.Err != nil {
			continue
		}
		if !r.FirstCheck {
			t.Errorf("%s/%s <- %s used a non-first flipped branch", r.Recipient, r.Target, r.Donor)
		}
	}
}

// BenchmarkPipelineStages isolates the pipeline's phases on the
// Section 2 workload.
func BenchmarkPipelineStages(b *testing.B) {
	skipInShort(b)
	tgt, err := apps.TargetByID("cwebp", "jpegdec.c@248")
	if err != nil {
		b.Fatal(err)
	}
	errIn, err := figure8.ErrorInputFor(tgt)
	if err != nil {
		b.Fatal(err)
	}
	recipient, _ := apps.ByName("cwebp")
	recipientMod, err := apps.Build(recipient)
	if err != nil {
		b.Fatal(err)
	}
	donorApp, _ := apps.ByName("feh")
	donor, err := apps.BuildDonorBinary(donorApp)
	if err != nil {
		b.Fatal(err)
	}
	dis := hDissect(b, "mjpg", tgt.Seed)
	relevant := dis.DiffFields(tgt.Seed, errIn)

	b.Run("DonorCheckDiscovery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := phage.DiscoverChecks(donor, tgt.Seed, errIn, dis, relevant, false)
			if err != nil || len(d.Checks) == 0 {
				b.Fatalf("%v / %d checks", err, len(d.Checks))
			}
		}
	})
	disc, _ := phage.DiscoverChecks(donor, tgt.Seed, errIn, dis, relevant, false)
	fields := disc.Checks[0].Cond.Fields()
	b.Run("InsertionPointAnalysis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := phage.AnalyzeInsertionPoints(recipientMod, tgt.Seed, dis, fields, relevant)
			if err != nil || len(a.Points) == 0 {
				b.Fatalf("%v / %d points", err, len(a.Points))
			}
		}
	})
	analysis, _ := phage.AnalyzeInsertionPoints(recipientMod, tgt.Seed, dis, fields, relevant)
	_, _, stable := analysis.Candidates()
	b.Run("RewriteTranslation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver := smt.NewService(smt.Config{}).Session()
			tr := phage.Rewrite(disc.Checks[0].Cond, stable[len(stable)-1].Names, solver)
			if tr == nil {
				b.Fatal("rewrite failed")
			}
		}
	})
}

// BenchmarkTaintTracking measures the execution monitor's overhead.
func BenchmarkTaintTracking(b *testing.B) {
	skipInShort(b)
	app, _ := apps.ByName("cwebp")
	mod, err := apps.Build(app)
	if err != nil {
		b.Fatal(err)
	}
	seed := apps.SeedMJPG()
	b.Run("Plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := vm.New(mod, seed).Run(); !r.OK() {
				b.Fatal(r.Trap)
			}
		}
	})
	b.Run("Tainted", func(b *testing.B) {
		dis := hDissect(b, "mjpg", seed)
		for i := 0; i < b.N; i++ {
			v := vm.New(mod, seed)
			v.Tracer = taint.NewTracker(mod, taint.Options{Labels: dis})
			if r := v.Run(); !r.OK() {
				b.Fatal(r.Trap)
			}
		}
	})
}

// BenchmarkSimplify measures the Figure 5 rule engine on the paper's
// endianness-conversion pattern.
func BenchmarkSimplify(b *testing.B) {
	skipInShort(b)
	f := bitvec.Field("/start_frame/content/height", 16, 4)
	lo := bitvec.And(f, bitvec.Const(16, 0x00FF))
	hi := bitvec.LShr(bitvec.And(f, bitvec.Const(16, 0xFF00)), bitvec.Const(16, 8))
	read := bitvec.Or(bitvec.Shl(hi, bitvec.Const(16, 8)), lo)
	check := bitvec.Ule(bitvec.Mul(bitvec.ZExt(64, read), bitvec.ZExt(64, read)), bitvec.Const(64, 536870911))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bitvec.Simplify(check).OpCount() > 4 {
			b.Fatal("did not collapse")
		}
	}
}

// ---- The staged engine: batched, cached, parallel Figure 8.
//
// BenchmarkFigure8Batch runs the complete 18-row Figure 8 workload two
// ways. "Sequential" models the pre-engine path: every row gets a
// fresh engine with a cold compile cache, one validation worker and no
// shared baselines or proofs. "Engine" is the production shape: one
// shared engine, content-keyed compile cache, shared baseline and
// proof caches, transfers batched across workers. Error-input
// discovery happens once, outside both timed regions, exactly as the
// paper excludes DIODE's initial discovery from generation times.
func BenchmarkFigure8Batch(b *testing.B) {
	skipInShort(b)
	type task struct {
		id string
		tr *phage.Transfer
	}
	var tasks []task
	for _, tgt := range apps.Targets() {
		for _, donor := range tgt.Donors {
			tr, err := figure8.NewTransfer(tgt, donor, phage.Options{})
			if err != nil {
				b.Fatal(err)
			}
			tasks = append(tasks, task{id: tgt.Recipient + "/" + tgt.ID + "<-" + donor, tr: tr})
		}
	}

	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range tasks {
				eng := &pipeline.Engine{Workers: 1, Compiler: compile.NewCache(0)}
				tr := *t.tr
				if _, err := eng.Run(&tr); err != nil {
					b.Fatalf("%s: %v", t.id, err)
				}
			}
		}
	})

	b.Run("Engine", func(b *testing.B) {
		eng := pipeline.NewEngine()
		eng.Compiler = compile.NewCache(0)
		batch := &pipeline.Batch{Engine: eng}
		for i := 0; i < b.N; i++ {
			var bts []pipeline.BatchTask
			for _, t := range tasks {
				tr := *t.tr
				bts = append(bts, pipeline.BatchTask{ID: t.id, Transfer: &tr})
			}
			results, stats := batch.Run(bts)
			if stats.Failed > 0 {
				for _, r := range results {
					if r.Err != nil {
						b.Fatalf("%s: %v", r.ID, r.Err)
					}
				}
			}
		}
	})
}

// ---- The shared constraint service: cold vs warm solving.
//
// solverWorkload is the symbolic side of one real Figure-8 row — the
// translation-heavy cwebp <- viewnior transfer, whose validation also
// carries the expensive overflow-freedom SAT proof. replaySolver runs
// the complete transfer on a fresh engine whose only warm state is the
// given constraint service (the engine-level proof and baseline caches
// start cold every time, and the compile cache is shared by both
// sides), so the cold/warm delta isolates exactly what the service
// memoises: equivalence verdicts and the overflow proof.
func newSolverWorkload(tb testing.TB) *phage.Transfer {
	tb.Helper()
	tgt, err := apps.TargetByID("cwebp", "jpegdec.c@248")
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := figure8.NewTransfer(tgt, "viewnior", phage.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func replaySolver(tb testing.TB, base *phage.Transfer, svc *smt.Service) {
	tb.Helper()
	eng := &pipeline.Engine{Workers: 1, Compiler: compile.Default()}
	tr := *base
	tr.Opts.Service = svc
	res, err := eng.Run(&tr)
	if err != nil {
		tb.Fatal(err)
	}
	if res.UsedChecks() < 1 {
		tb.Fatal("no checks transferred")
	}
}

// BenchmarkSolveCold measures the Figure-8 row on a fresh service
// every iteration: every verdict and the overflow proof are proven
// from zero.
func BenchmarkSolveCold(b *testing.B) {
	skipInShort(b)
	base := newSolverWorkload(b)
	replaySolver(b, base, smt.NewService(smt.Config{})) // warm compiles/VM state common to both benchmarks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replaySolver(b, base, smt.NewService(smt.Config{}))
	}
}

// BenchmarkSolveWarm measures the same row against a service that has
// already answered it once: verdicts and the overflow proof come from
// the shared memo.
func BenchmarkSolveWarm(b *testing.B) {
	skipInShort(b)
	base := newSolverWorkload(b)
	svc := smt.NewService(smt.Config{})
	replaySolver(b, base, svc) // warm the memo outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replaySolver(b, base, svc)
	}
}

// TestWarmSolverAtLeastTwiceCold pins the incremental-service payoff:
// the Figure-8 row on a warm service must run at least 2x faster than
// on a cold one (the measured gap is larger — the row's SAT proof
// alone dominates its remaining work — so the 2x bound holds under
// race-detector skew), and the warm runs must be answered from the
// memo, not re-proven.
func TestWarmSolverAtLeastTwiceCold(t *testing.T) {
	if testing.Short() {
		t.Skip("solver warm/cold timing runs in the full (non-short) suite")
	}
	base := newSolverWorkload(t)

	const rounds = 3
	var cold, warm time.Duration
	warmSvc := smt.NewService(smt.Config{})
	replaySolver(t, base, warmSvc) // prime the memo and all shared caches
	for i := 0; i < rounds; i++ {
		start := time.Now()
		replaySolver(t, base, smt.NewService(smt.Config{}))
		cold += time.Since(start)

		start = time.Now()
		replaySolver(t, base, warmSvc)
		warm += time.Since(start)
	}

	st := warmSvc.Stats()
	if st.MemoHits == 0 {
		t.Fatal("warm replays produced no memo hits")
	}
	if st.SATCalls == 0 {
		t.Fatal("the cold prime issued no SAT calls — workload too trivial to pin anything")
	}
	t.Logf("cold %s vs warm %s over %d rounds (warm service: %d memo hits, %d SAT calls)",
		cold, warm, rounds, st.MemoHits, st.SATCalls)
	if cold < 2*warm {
		t.Errorf("warm solving is not ≥2x faster: cold %s vs warm %s", cold, warm)
	}
}

// TestFigure8MemoOnOffByteIdentical is the determinism contract for
// the shared constraint service: the complete 18-row Figure 8 batch
// must produce byte-identical reports with the verdict memo enabled
// and disabled. (Reports exclude wall-clock fields by construction;
// the memo may only change how fast verdicts arrive, never which.)
func TestFigure8MemoOnOffByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Figure-8 batches; runs in the full (non-short) suite")
	}
	on, _ := coldBatch(t)
	off := batchReports(t, smt.NewService(smt.Config{DisableMemo: true}))
	diffReports(t, "memo on vs off", on, off)
}

// batchReports runs the complete Figure-8 batch against svc and
// returns the marshalled per-row reports (which exclude wall-clock and
// solver-counter fields by construction — byte equality means verdict
// equality).
func batchReports(t *testing.T, svc *smt.Service) map[string][]byte {
	return batchReportsOpts(t, svc, phage.Options{})
}

func batchReportsOpts(t *testing.T, svc *smt.Service, opts phage.Options) map[string][]byte {
	t.Helper()
	out, err := runBatchReports(svc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runBatchReports(svc *smt.Service, opts phage.Options) (map[string][]byte, error) {
	eng := pipeline.NewEngine()
	eng.Service = svc
	rows, _ := figure8.BatchRows(opts, &pipeline.Batch{Engine: eng})
	out := map[string][]byte{}
	for _, r := range rows {
		key := r.Recipient + "/" + r.Target + "<-" + r.Donor
		if r.Err != nil {
			return nil, fmt.Errorf("%s failed: %w", key, r.Err)
		}
		rep := server.BuildReport(r.Recipient, r.Target, r.Donor, r.Result.Snapshot())
		bs, err := rep.Marshal()
		if err != nil {
			return nil, err
		}
		out[key] = bs
	}
	return out, nil
}

// coldFixture is the default-configuration cold Figure-8 batch: one
// fresh service answering the whole batch, every row's report
// marshalled. A full cold batch costs tens of seconds, so it runs once
// per test binary and every test that compares against, snapshots or
// inspects a cold default batch shares it read-only. Tests must not
// issue further queries on its service: they read its stats.
var coldFixture struct {
	once    sync.Once
	svc     *smt.Service
	reports map[string][]byte
	err     error
}

// coldBatch returns the shared cold batch's reports and service.
func coldBatch(t *testing.T) (map[string][]byte, *smt.Service) {
	t.Helper()
	coldFixture.once.Do(func() {
		coldFixture.svc = smt.NewService(smt.Config{})
		coldFixture.reports, coldFixture.err = runBatchReports(coldFixture.svc, phage.Options{})
	})
	if coldFixture.err != nil {
		t.Fatal(coldFixture.err)
	}
	return coldFixture.reports, coldFixture.svc
}

func diffReports(t *testing.T, label string, a, b map[string][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row counts differ: %d vs %d", label, len(a), len(b))
	}
	for key, ra := range a {
		if string(ra) != string(b[key]) {
			t.Errorf("%s: %s: report bytes differ:\n  a: %s\n  b: %s", label, key, ra, b[key])
		}
	}
}

// TestFigure8TraceOnOffByteIdentical is the determinism bar for the
// telemetry layer: the complete Figure-8 batch must produce
// byte-identical reports (which include the patched sources and patch
// artifact keys) with span capture enabled and disabled. Tracing is an
// observer — timing and span trees travel beside the canonical
// outputs, never inside them.
func TestFigure8TraceOnOffByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Figure-8 batches; runs in the full (non-short) suite")
	}
	off, _ := coldBatch(t)
	on := batchReportsOpts(t, smt.NewService(smt.Config{}), phage.Options{Trace: true})
	diffReports(t, "trace off vs on", off, on)
}

// TestPipelineStageLatencyBreakdown prints the per-stage latency
// summary recorded in BENCH_pipeline.json: the full Figure-8 batch on
// a cold engine, then the identical batch rerun on the same — now warm
// — engine (compile cache, baselines, proofs and the solver memo all
// hot). Regenerate the JSON from this test's -v output.
func TestPipelineStageLatencyBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Figure-8 batches; runs in the full (non-short) suite")
	}
	eng := pipeline.NewEngine()
	eng.Compiler = compile.NewCache(0)
	for _, label := range []string{"cold", "warm"} {
		rows, _ := figure8.BatchRows(phage.Options{Trace: true}, &pipeline.Batch{Engine: eng})
		var traces []*telemetry.Span
		for _, r := range rows {
			if r.Err != nil {
				t.Fatalf("%s/%s <- %s failed: %v", r.Recipient, r.Target, r.Donor, r.Err)
			}
			if r.Result.Trace == nil {
				t.Fatalf("%s/%s <- %s: no trace", r.Recipient, r.Target, r.Donor)
			}
			traces = append(traces, r.Result.Trace)
		}
		t.Logf("%s batch per-stage latency over %d transfers:\n%s",
			label, len(traces), telemetry.FormatStageTable(telemetry.SummarizeStages(traces, telemetry.Stages)))
	}
}

// TestFigure8PortfolioOnOffByteIdentical is the determinism bar for
// portfolio solving at full scale: the complete Figure-8 batch must
// produce byte-identical reports whether replicas race on goroutines
// (default), run one-by-one (the sequential ablation), or never exist
// at all (a single-replica service, the pre-portfolio configuration).
// The portfolio may only change how fast verdicts arrive, never which.
func TestFigure8PortfolioOnOffByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("three full Figure-8 batches; runs in the full (non-short) suite")
	}
	racing, _ := coldBatch(t)
	sequential := batchReports(t, smt.NewService(smt.Config{PortfolioSequential: true}))
	single := batchReports(t, smt.NewService(smt.Config{PortfolioReplicas: 1}))
	diffReports(t, "racing vs sequential", racing, sequential)
	diffReports(t, "racing vs single-replica", racing, single)
}

// TestFigure8PrefilterOnOffByteIdentical is the determinism bar for
// the corpus fingerprint pre-filter: every Figure-8 target resolved
// auto-donor — the Select stage picking the donor from the real
// registry corpus — must produce a byte-identical report (selected
// donor included) with the pre-filter enabled and disabled. The
// pre-filter may only shrink the scored candidate set, never change
// what selection returns.
func TestFigure8PrefilterOnOffByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full auto-donor Figure-8 batches; runs in the full (non-short) suite")
	}
	run := func(noPrefilter bool) map[string][]byte {
		eng := pipeline.NewEngine()
		sel := &corpus.Selector{NoPrefilter: noPrefilter}
		eng.Selector = sel
		var tasks []pipeline.BatchTask
		for _, tgt := range apps.Targets() {
			tr, err := figure8.NewTransfer(tgt, pipeline.AutoDonor, phage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, pipeline.BatchTask{ID: tgt.Recipient + "/" + tgt.ID, Transfer: tr})
		}
		results, _ := (&pipeline.Batch{Engine: eng}).Run(tasks)
		out := map[string][]byte{}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s failed: %v", r.ID, r.Err)
			}
			snap := r.Result.Snapshot()
			rep := server.BuildReport(r.ID, "", snap.Donor, snap)
			bs, err := rep.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			out[r.ID] = bs
		}
		st := sel.Stats()
		if noPrefilter && st.PrefilterQueries != 0 {
			t.Fatalf("disabled pre-filter still answered %d queries", st.PrefilterQueries)
		}
		if !noPrefilter && st.PrefilterQueries == 0 {
			t.Fatal("enabled pre-filter answered no queries")
		}
		return out
	}

	diffReports(t, "prefilter on vs off", run(false), run(true))
}

// TestFigure8PersistedMemoByteIdentical is the determinism bar for
// warm-state persistence: a batch answered from a loaded snapshot must
// report byte-identically to the cold batch that produced it, while
// issuing no SAT calls of its own (every verdict comes from the
// persisted memo).
func TestFigure8PersistedMemoByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Figure-8 batches; runs in the full (non-short) suite")
	}
	cold, coldSvc := coldBatch(t)
	snap := coldSvc.EncodeMemo()

	warmSvc := smt.NewService(smt.Config{})
	if err := warmSvc.LoadMemoBytes(snap); err != nil {
		t.Fatal(err)
	}
	if warmSvc.Stats().MemoLoaded == 0 {
		t.Fatal("snapshot installed no verdicts")
	}
	warm := batchReports(t, warmSvc)
	diffReports(t, "cold vs persisted-warm", cold, warm)

	cs, ws := coldSvc.Stats(), warmSvc.Stats()
	t.Logf("cold: %d SAT calls; persisted-warm: %d SAT calls, %d loaded, %d persistence hits",
		cs.SATCalls, ws.SATCalls, ws.MemoLoaded, ws.MemoLoadedHits)
	if cs.SATCalls == 0 {
		t.Fatal("cold batch issued no SAT calls — nothing was persisted")
	}
	if ws.SATCalls != 0 {
		t.Errorf("persisted-warm batch re-proved %d queries", ws.SATCalls)
	}
	if ws.MemoLoadedHits == 0 {
		t.Error("persisted-warm batch never hit a loaded entry")
	}
}

// BenchmarkSolvePersistedMemo is the cold-boot-with-snapshot number:
// each iteration builds a brand-new service (as a freshly started
// phaged would), loads the snapshot a previous process saved, and runs
// the Figure-8 row. The target is within 2x of the in-process warm
// path (BenchmarkSolveWarm) — snapshot decode plus core rebuild is the
// only extra work.
func BenchmarkSolvePersistedMemo(b *testing.B) {
	skipInShort(b)
	base := newSolverWorkload(b)
	src := smt.NewService(smt.Config{})
	replaySolver(b, base, src) // produce the snapshot outside the timed region
	snap := src.EncodeMemo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := smt.NewService(smt.Config{})
		if err := svc.LoadMemoBytes(snap); err != nil {
			b.Fatal(err)
		}
		replaySolver(b, base, svc)
	}
}

// BenchmarkHardProofPortfolio and BenchmarkHardProofSingle quantify
// the tentpole: the same cold Figure-8 row — dominated by the overflow
// -freedom proof, the hardest SAT query in the catalogue — resolved by
// the racing replica portfolio versus a single solver. The portfolio
// must strictly reduce wall time here; the verdicts are identical by
// construction (TestFigure8PortfolioOnOffByteIdentical).
func BenchmarkHardProofPortfolio(b *testing.B) {
	skipInShort(b)
	base := newSolverWorkload(b)
	replaySolver(b, base, smt.NewService(smt.Config{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replaySolver(b, base, smt.NewService(smt.Config{}))
	}
}

func BenchmarkHardProofSingle(b *testing.B) {
	skipInShort(b)
	base := newSolverWorkload(b)
	replaySolver(b, base, smt.NewService(smt.Config{PortfolioReplicas: 1}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replaySolver(b, base, smt.NewService(smt.Config{PortfolioReplicas: 1}))
	}
}

// TestFullBatchSharesSolverVerdicts pins engine-wide query sharing on
// the complete 10-target catalogue: one shared service across the full
// batch must observe memo hits (donors repeat across targets, rescan
// rounds repeat overflow queries) — the counters that back the
// phaged_solver_memo_* metrics.
func TestFullBatchSharesSolverVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure-8 batch; runs in the full (non-short) suite")
	}
	_, svc := coldBatch(t)
	st := svc.Stats()
	t.Logf("full-batch service stats: %+v", st)
	if st.MemoHits == 0 {
		t.Error("full Figure-8 batch produced no shared-memo hits")
	}
	if st.Queries == 0 || st.SATCalls == 0 {
		t.Errorf("service under-exercised: %+v", st)
	}
}

// ---- The phaged serving hot path.

// serviceRequests are the three determinism rows — catalogued error
// inputs, so no DIODE discovery inflates the serving measurements.
func serviceRequests() []*server.Request {
	return []*server.Request{
		{Recipient: "jasper", Target: "jpc_dec.c@492", Donor: "openjpeg"},
		{Recipient: "gif2tiff", Target: "gif2tiff.c@355", Donor: "magick9"},
		{Recipient: "wireshark14", Target: "packet-dcp-etsi.c@258", Donor: "wireshark18"},
	}
}

// BenchmarkServerThroughput measures requests/sec against a warm
// in-process phaged: after the first pass every request key is in the
// dedup index and every compile is a cache hit, so the benchmark
// isolates the serving overhead (HTTP, JSON, job table) the daemon
// adds on top of the engine.
func BenchmarkServerThroughput(b *testing.B) {
	skipInShort(b)
	srv := server.New(server.Config{})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	cli := &server.Client{BaseURL: ts.URL}
	reqs := serviceRequests()
	for _, req := range reqs { // warm the engines and the dedup index
		env, err := cli.Transfer(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if env.Status != server.StatusDone {
			b.Fatalf("%s/%s: %s (%s)", req.Recipient, req.Target, env.Status, env.Error)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := cli.Transfer(context.Background(), reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		if env.Status != server.StatusDone {
			b.Fatalf("request %d: %s", i, env.Status)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// TestServerShutdownRestoresGoroutineBaseline: after serving traffic
// and shutting down, the process goroutine count must return to its
// pre-server baseline — the worker pools, watchers and HTTP plumbing
// may not leak.
func TestServerShutdownRestoresGoroutineBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := server.New(server.Config{Shards: 2})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	cli := &server.Client{BaseURL: ts.URL}
	req := &server.Request{Recipient: "gif2tiff", Target: "gif2tiff.c@355", Donor: "magick9"}
	for i := 0; i < 3; i++ { // exercise run, dedup and streaming paths
		if _, err := cli.Transfer(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.Stream(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after shutdown, baseline %d (leak)", n, baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
