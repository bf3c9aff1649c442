package main

import (
	"runtime"
	"sync"
	"time"

	"codephage/internal/bitvec"
	"codephage/internal/compile"
	"codephage/internal/figure8"
	"codephage/internal/pipeline"
	"codephage/internal/smt"
	"codephage/internal/telemetry"
)

// stageMetric maps each pipeline stage span to its metric name.
var stageMetric = map[string]string{
	telemetry.StageSelect:        "pipeline.select_s",
	telemetry.StageDiscover:      "pipeline.discover_s",
	telemetry.StageAnalyzePoints: "pipeline.analyze_points_s",
	telemetry.StageTranslate:     "pipeline.translate_s",
	telemetry.StageInsert:        "pipeline.insert_s",
	telemetry.StageValidate:      "pipeline.validate_s",
	telemetry.StageRescan:        "pipeline.rescan_s",
}

// layerNames lists every per-layer metric a traced run prints. What
// each should move, stated before any change is measured against it:
//
//   - smt.* (deltas of the constraint service's counters over the
//     measured phase): both workloads answer every query from a
//     loaded verdict memo, so smt.memo_* move batch_cpu_s on both, and
//     SAT solver changes should leave both unchanged (smt.sat_calls
//     reads 0 on both).
//   - pipeline.<stage>_s (span self time, each span's own time charged
//     to its nearest stage): rescan_s moves batch_wall_s on
//     figure8-warm. pipeline.untraced_s is engine run time, timed from
//     outside, that no stage span covers (set-up, the overflow proof,
//     packaging, failed donor attempts); it moves request_p90_s on
//     scenario-http. pipeline.proof_* count overflow-proof verdicts.
//   - diode.discover_s (error-input discovery, timed around the
//     figure8.NewTransfer calls that first resolve each target, which
//     figure8-warm makes in set-up) moves setup_s on figure8-warm.
//   - compile.* move batch_cpu_s on figure8-warm.
//   - bitvec.interned_terms moves peak_rss_mb on both.
//   - corpus.* move setup_s and request_p50_s on scenario-http.
//   - server.* (from the job envelopes: queue and run time, the rest
//     of the client latency as the HTTP hop, and the repeat pass) move
//     request_p50_s and request_p90_s on scenario-http.
//   - telemetry.overhead_s (on figure8-warm the median traced minus
//     the median untraced batch wall time over interleaved
//     repetitions; on scenario-http, where phaged traces every job
//     anyway, the time to fetch the traces) should move nothing; the
//     prediction is about 0.
var layerNames = []string{
	"smt.sat_calls", "smt.sat_time_s", "smt.sat_conflicts", "smt.sat_propagations",
	"smt.memo_hit_ratio", "smt.memo_lookups", "smt.cnf_hit_ratio", "smt.cnf_lookups",
	"smt.solver_resets",
	"pipeline.select_s", "pipeline.discover_s", "pipeline.analyze_points_s",
	"pipeline.translate_s", "pipeline.insert_s", "pipeline.validate_s", "pipeline.rescan_s",
	"pipeline.untraced_s", "pipeline.outside_s", "pipeline.trace_coverage",
	"pipeline.proof_proven", "pipeline.proof_refuted", "pipeline.proof_none",
	"diode.discover_s",
	"compile.misses", "compile.lookups", "compile.hit_ratio",
	"bitvec.interned_terms",
	"corpus.index_build_s", "corpus.prefilter_candidates", "corpus.prefilter_fallbacks",
	"server.queue_p90_s", "server.run_p50_s", "server.hop_p50_s", "server.repeat_p50_s",
	"server.dedup_hits",
	"telemetry.overhead_s",
}

// layerInput is what one traced measured phase observed. Fields of a
// layer the workload does not use stay zero.
type layerInput struct {
	solverBefore, solverAfter smt.ServiceStats
	compile                   compile.CacheStats // delta over the phase
	interned                  int64

	// traces[i] is transfer i's span tree and outside[i] its wall time
	// timed from outside the engine.
	traces  []*telemetry.Span
	outside []time.Duration
	proofs  []*bool

	discover time.Duration // error-input discovery

	indexBuild                    time.Duration
	prefilterCands, prefilterFall int64

	queue, run, hop, repeat []time.Duration
	dedupHits               int64
}

// layerMetrics derives every per-layer metric except
// telemetry.overhead_s, which the caller sets.
func layerMetrics(in *layerInput) metrics {
	m := metrics{}
	a, b := in.solverAfter, in.solverBefore
	m.set("smt.sat_calls", float64(a.SATCalls-b.SATCalls), "count")
	m.seconds("smt.sat_time_s", a.SATTime-b.SATTime)
	m.set("smt.sat_conflicts", float64(a.SATConflicts-b.SATConflicts), "count")
	m.set("smt.sat_propagations", float64(a.SATPropagations-b.SATPropagations), "count")
	memoHits, memoLookups := a.MemoHits-b.MemoHits, a.MemoHits-b.MemoHits+a.MemoMisses-b.MemoMisses
	m.set("smt.memo_hit_ratio", ratio(memoHits, memoLookups), "ratio")
	m.set("smt.memo_lookups", float64(memoLookups), "count")
	cnfHits, cnfLookups := a.CNFHits-b.CNFHits, a.CNFHits-b.CNFHits+a.CNFMisses-b.CNFMisses
	m.set("smt.cnf_hit_ratio", ratio(cnfHits, cnfLookups), "ratio")
	m.set("smt.cnf_lookups", float64(cnfLookups), "count")
	m.set("smt.solver_resets", float64(a.SolverResets-b.SolverResets), "count")

	stageSelf := map[string]time.Duration{}
	var covered, outside time.Duration
	for i, tr := range in.traces {
		outside += in.outside[i]
		covered += attribute(tr, "", stageSelf)
	}
	for stage, name := range stageMetric {
		m.seconds(name, stageSelf[stage])
	}
	m.seconds("pipeline.untraced_s", outside-covered)
	m.seconds("pipeline.outside_s", outside)
	m.set("pipeline.trace_coverage", ratio(int64(covered), int64(outside)), "ratio")
	var proven, refuted, none int
	for _, p := range in.proofs {
		switch {
		case p == nil:
			none++
		case *p:
			proven++
		default:
			refuted++
		}
	}
	m.set("pipeline.proof_proven", float64(proven), "count")
	m.set("pipeline.proof_refuted", float64(refuted), "count")
	m.set("pipeline.proof_none", float64(none), "count")

	m.seconds("diode.discover_s", in.discover)

	lookups := in.compile.Hits + in.compile.Misses
	m.set("compile.misses", float64(in.compile.Misses), "count")
	m.set("compile.lookups", float64(lookups), "count")
	m.set("compile.hit_ratio", ratio(in.compile.Hits, lookups), "ratio")

	m.set("bitvec.interned_terms", float64(in.interned), "count")

	m.seconds("corpus.index_build_s", in.indexBuild)
	m.set("corpus.prefilter_candidates", float64(in.prefilterCands), "count")
	m.set("corpus.prefilter_fallbacks", float64(in.prefilterFall), "count")

	m.set("server.queue_p90_s", quantile(durationsSeconds(in.queue), 0.9), "s")
	m.set("server.run_p50_s", quantile(durationsSeconds(in.run), 0.5), "s")
	m.set("server.hop_p50_s", quantile(durationsSeconds(in.hop), 0.5), "s")
	m.set("server.repeat_p50_s", quantile(durationsSeconds(in.repeat), 0.5), "s")
	m.set("server.dedup_hits", float64(in.dedupHits), "count")
	return m
}

// attribute adds the self time of every span under s to the nearest
// enclosing stage span (stage is the enclosing stage, "" above the
// stages) and returns the wall time the outermost stage spans cover.
func attribute(s *telemetry.Span, stage string, self map[string]time.Duration) time.Duration {
	if s == nil {
		return 0
	}
	var covered time.Duration
	if _, ok := stageMetric[s.Name]; ok {
		if stage == "" {
			covered = s.Duration()
		}
		stage = s.Name
	}
	if stage != "" {
		self[stage] += s.Self()
	}
	for _, c := range s.Children {
		covered += attribute(c, stage, self)
	}
	return covered
}

// tracedRun is one traced Figure 8 batch: the same transfers and
// concurrency as figure8.BatchRows, with every engine run timed from
// outside.
type tracedRun struct {
	wall    time.Duration
	results []*pipeline.Result
	errs    []error
	in      layerInput
}

func tracedPass(svc *smt.Service) *tracedRun {
	eng := freshEngine(svc)
	workers := batchWorkers()
	// Candidate validation gets the CPU share pipeline.Batch gives it.
	perTask := runtime.GOMAXPROCS(0) / workers
	if perTask < 1 {
		perTask = 1
	}
	opts := pipeline.Options{Service: svc, Trace: true, Workers: perTask}
	rows := catalogueRows()
	tr := &tracedRun{results: make([]*pipeline.Result, len(rows)), errs: make([]error, len(rows))}
	tr.in.solverBefore = svc.Stats()
	runTimes := make([]time.Duration, len(rows))

	start := time.Now()
	transfers := make([]*pipeline.Transfer, len(rows))
	for i, r := range rows {
		transfers[i], tr.errs[i] = figure8.NewTransfer(r.tgt, r.donor, opts)
	}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(rows) {
					return
				}
				if transfers[i] == nil {
					continue
				}
				t0 := time.Now()
				res, err := eng.Run(transfers[i])
				runTimes[i] = time.Since(t0)
				tr.results[i], tr.errs[i] = res, err
			}
		}()
	}
	wg.Wait()
	tr.wall = time.Since(start)

	tr.in.solverAfter = svc.Stats()
	tr.in.compile = eng.StatsSnapshot().Compile
	tr.in.interned = bitvec.Interned().Terms
	for i, res := range tr.results {
		if res == nil {
			continue
		}
		tr.in.traces = append(tr.in.traces, res.Trace)
		tr.in.outside = append(tr.in.outside, runTimes[i])
		tr.in.proofs = append(tr.in.proofs, res.OverflowFreeProven)
	}
	return tr
}

// layers returns the run's per-layer metrics.
func (tr *tracedRun) layers() metrics { return layerMetrics(&tr.in) }
