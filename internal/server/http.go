package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"codephage/internal/apps"
	"codephage/internal/corpus"
)

func boolMetric(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Handler returns the phaged HTTP API:
//
//	POST /v1/transfer          submit and wait for the result
//	POST /v1/transfer?async=1  submit, return the envelope immediately
//	POST /v1/transfer?stream=1 submit, stream NDJSON status events,
//	                           ending with the terminal envelope
//	GET  /v1/jobs/{id}         job envelope (report included when done)
//	GET  /v1/targets           the transferable error catalogue
//	GET  /corpus               the donor knowledge-base index
//	                           (built on first access)
//	GET  /v1/jobs/{id}/trace   the job's span tree (done jobs only)
//	GET  /patches              the patch artifact listing
//	GET  /patches/{key}        one encoded artifact by content key
//	GET  /metrics              Prometheus-style server and engine stats
//	GET  /healthz              liveness probe
//	GET  /readyz               readiness probe (503 until every
//	                           component is ready)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/transfer", s.handleTransfer)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/targets", s.handleTargets)
	mux.HandleFunc("GET /corpus", s.handleCorpus)
	mux.HandleFunc("GET /patches", s.handlePatches)
	mux.HandleFunc("POST /patches", s.handlePatchPut)
	mux.HandleFunc("GET /patches/{key}", s.handlePatch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		s.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// handleReady serves the readiness probe: 200 with the component
// breakdown once everything is up, 503 with the same breakdown until
// then. Probing builds the corpus index, so a fresh node becomes ready
// (and warm) by being probed.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	r := s.Readiness()
	code := http.StatusOK
	if !r.Ready {
		code = http.StatusServiceUnavailable
	}
	s.WriteJSON(w, code, r)
}

// WriteJSON writes a JSON response body. Encode failures — a client
// that hung up mid-body, a broken pipe — cannot be reported to that
// client anymore, but they must not vanish either: each one is
// counted (phaged_response_encode_failures_total) and logged, so a
// spike of half-written responses is visible on /metrics instead of
// silently dropped on the floor. Exported so the cluster front door
// answers through the same path.
func (s *Server) WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.counter.encodeFailures.Add(1)
		s.logf("phaged: encoding response: %v", err)
	}
}

// WriteError writes err as a JSON {"error": ...} response body.
func (s *Server) WriteError(w http.ResponseWriter, code int, err error) {
	s.WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// MaxJSONBody bounds every JSON request body the daemon accepts:
// requests are a few names and small ints, so one client must never
// be able to buffer the daemon into OOM. Patch uploads carry whole
// artifacts and get the larger MaxPatchBody.
const MaxJSONBody = 1 << 16

// MaxPatchBody bounds POST /patches upload bodies; a patch artifact
// carries both module images, so the bound is much larger than for
// plain JSON requests.
const MaxPatchBody = 16 << 20

// DecodeJSONBody decodes a size-bounded JSON request body into v,
// distinguishing an oversized body (413, the bound worked) from a
// malformed one (400). On error it returns the HTTP status to write;
// on success the status is 0. Exported so the cluster front door
// applies the identical bound before routing.
func DecodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return bodyError("decoding", err)
	}
	return 0, nil
}

// ReadBody reads a request body of at most limit bytes, with the
// statuses of DecodeJSONBody: 413 for an oversized body, 400 for a
// failed read. Exported so the cluster front door buffers a request
// under the identical bound before routing it.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		code, err := bodyError("reading", err)
		return nil, code, err
	}
	return body, 0, nil
}

// bodyError maps a failed bounded body read to its HTTP status.
func bodyError(op string, err error) (int, error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("%s request: %w", op, err)
}

func (s *Server) handleTransfer(w http.ResponseWriter, r *http.Request) {
	var req Request
	if code, err := DecodeJSONBody(w, r, MaxJSONBody, &req); err != nil {
		s.WriteError(w, code, err)
		return
	}
	job, dedup, err := s.Submit(&req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrShuttingDown) || errors.Is(err, ErrQueueFull) {
			code = http.StatusServiceUnavailable
		}
		s.WriteError(w, code, err)
		return
	}
	q := r.URL.Query()
	switch {
	case q.Get("stream") != "":
		s.streamJob(w, r, job, dedup)
	case q.Get("async") != "":
		s.WriteJSON(w, http.StatusAccepted, job.Envelope(dedup))
	default:
		select {
		case <-job.Done():
			s.WriteJSON(w, http.StatusOK, job.Envelope(dedup))
		case <-r.Context().Done():
			// The client went away; the job keeps running and stays
			// addressable by ID and dedupable by key.
		}
	}
}

// streamJob writes one NDJSON line per status transition, then the
// terminal envelope as the final line.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *Job, dedup bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(v any) {
		if err := enc.Encode(v); err != nil {
			s.counter.encodeFailures.Add(1)
			s.logf("phaged: encoding stream event: %v", err)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	for st := range job.Watch() {
		if st.Terminal() {
			break
		}
		emit(map[string]any{"id": job.ID, "status": st})
		select {
		case <-r.Context().Done():
			return
		default:
		}
	}
	select {
	case <-job.Done():
		// The trace record precedes the terminal envelope so consumers
		// that keep only the last line (the client's Stream helper)
		// still end on the envelope.
		if tr := job.Trace(); tr != nil {
			emit(map[string]any{"id": job.ID, "trace": tr})
		}
		emit(job.Envelope(dedup))
	case <-r.Context().Done():
	}
}

// handleJobTrace serves a completed job's span tree. Traces are
// observability data beside the report surface: they live on their own
// endpoint so the report stays byte-identical with tracing on or off.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.WriteError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	tr := job.Trace()
	if tr == nil {
		s.WriteError(w, http.StatusNotFound, fmt.Errorf("job %q has no trace (status %s)", job.ID, job.Status()))
		return
	}
	s.WriteJSON(w, http.StatusOK, tr)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.WriteError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	s.WriteJSON(w, http.StatusOK, job.Envelope(false))
}

// TargetInfo is one catalogue entry of the /v1/targets listing.
type TargetInfo struct {
	Recipient string   `json:"recipient"`
	Target    string   `json:"target"`
	Kind      string   `json:"kind"`
	Format    string   `json:"format"`
	Donors    []string `json:"donors"`
}

func (s *Server) handleTargets(w http.ResponseWriter, _ *http.Request) {
	var out []TargetInfo
	for _, t := range apps.Targets() {
		out = append(out, TargetInfo{
			Recipient: t.Recipient,
			Target:    t.ID,
			Kind:      string(t.Kind),
			Format:    t.Format,
			Donors:    t.Donors,
		})
	}
	s.WriteJSON(w, http.StatusOK, out)
}

// CorpusInfo is the /corpus payload: the warm index plus the
// selector's activity counters.
type CorpusInfo struct {
	Stats corpus.SelectorStats `json:"stats"`
	Index *corpus.Index        `json:"index"`
}

// handleCorpus serves the donor knowledge base, establishing the
// index on first access (the same lazy build the first auto-donor
// transfer would trigger).
func (s *Server) handleCorpus(w http.ResponseWriter, _ *http.Request) {
	ix, err := s.corpus.Index()
	if err != nil {
		s.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.WriteJSON(w, http.StatusOK, CorpusInfo{Stats: s.corpus.Stats(), Index: ix})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("phaged_requests_total %d\n", st.Requests)
	p("phaged_jobs_accepted_total %d\n", st.Accepted)
	p("phaged_jobs_rejected_total %d\n", st.Rejected)
	p("phaged_dedup_hits_total %d\n", st.DedupHits)
	p("phaged_engine_runs_total %d\n", st.EngineRuns)
	p("phaged_jobs_completed_total %d\n", st.Completed)
	p("phaged_jobs_failed_total %d\n", st.Failed)
	p("phaged_response_encode_failures_total %d\n", st.EncodeFailures)
	p("phaged_patch_artifacts %d\n", st.PatchArtifacts)
	p("phaged_patch_store_puts_total %d\n", st.PatchPuts)
	p("phaged_patch_fetches_total %d\n", st.PatchFetches)
	p("phaged_jobs_queued %d\n", st.Queued)
	p("phaged_compile_cache_hits_total %d\n", st.Compile.Hits)
	p("phaged_compile_cache_misses_total %d\n", st.Compile.Misses)
	p("phaged_compile_cache_evictions_total %d\n", st.Compile.Evictions)
	p("phaged_compile_cache_entries %d\n", st.Compile.Entries)
	p("phaged_auto_transfers_total %d\n", st.AutoTransfers)
	p("phaged_corpus_built %d\n", boolMetric(st.Corpus.Built))
	p("phaged_corpus_entries %d\n", st.Corpus.Entries)
	p("phaged_corpus_signatures_rebuilt %d\n", st.Corpus.Rebuilt)
	p("phaged_corpus_selections_total %d\n", st.Corpus.Selections)
	p("phaged_corpus_candidates_total %d\n", st.Corpus.Candidates)
	p("phaged_corpus_survivors_total %d\n", st.Corpus.Survivors)
	p("phaged_corpus_prefilter_queries_total %d\n", st.Corpus.PrefilterQueries)
	p("phaged_corpus_prefilter_candidates_total %d\n", st.Corpus.PrefilterCandidates)
	p("phaged_corpus_prefilter_skipped_total %d\n", st.Corpus.PrefilterSkipped)
	p("phaged_corpus_prefilter_fallbacks_total %d\n", st.Corpus.PrefilterFallbacks)
	p("phaged_solver_sessions_total %d\n", st.Solver.Sessions)
	p("phaged_solver_queries_total %d\n", st.Solver.Queries)
	p("phaged_solver_memo_hits_total %d\n", st.Solver.MemoHits)
	p("phaged_solver_memo_misses_total %d\n", st.Solver.MemoMisses)
	p("phaged_solver_memo_evictions_total %d\n", st.Solver.MemoEvictions)
	p("phaged_solver_memo_entries %d\n", st.Solver.MemoEntries)
	p("phaged_solver_sat_calls_total %d\n", st.Solver.SATCalls)
	p("phaged_solver_sat_time_seconds %f\n", st.Solver.SATTime.Seconds())
	p("phaged_solver_cnf_memo_hits_total %d\n", st.Solver.CNFHits)
	p("phaged_solver_cnf_memo_misses_total %d\n", st.Solver.CNFMisses)
	p("phaged_solver_core_resets_total %d\n", st.Solver.SolverResets)
	p("phaged_solver_core_vars %d\n", st.Solver.Vars)
	p("phaged_solver_core_clauses %d\n", st.Solver.Clauses)
	p("phaged_solver_sat_conflicts_total %d\n", st.Solver.SATConflicts)
	p("phaged_solver_sat_decisions_total %d\n", st.Solver.SATDecisions)
	p("phaged_solver_sat_propagations_total %d\n", st.Solver.SATPropagations)
	p("phaged_solver_sat_restarts_total %d\n", st.Solver.SATRestarts)
	p("phaged_solver_portfolio_races_total %d\n", st.Solver.PortfolioRaces)
	p("phaged_solver_portfolio_wins_total %d\n", st.Solver.PortfolioWins)
	p("phaged_solver_portfolio_losses_total %d\n", st.Solver.PortfolioLosses)
	p("phaged_solver_imported_clauses_total %d\n", st.Solver.ImportedClauses)
	p("phaged_solver_memo_loaded_entries %d\n", st.Solver.MemoLoaded)
	p("phaged_solver_memo_loaded_hits_total %d\n", st.Solver.MemoLoadedHits)
	p("phaged_solver_memo_snapshot_saves_total %d\n", st.Solver.SnapshotSaves)
	p("phaged_interned_terms %d\n", st.Intern.Terms)
	p("phaged_interned_hits_total %d\n", st.Intern.Hits)
	p("phaged_interned_misses_total %d\n", st.Intern.Misses)
	p("phaged_interned_overflow_total %d\n", st.Intern.Overflow)
	p("phaged_interned_simplify_hits_total %d\n", st.Intern.SimplifyHits)
	p("phaged_interned_simplify_misses_total %d\n", st.Intern.SimplifyMisses)
	for i, es := range st.ShardStats {
		p("phaged_shard_solver_queries_total{shard=\"%d\"} %d\n", i, es.Solver.Queries)
		p("phaged_shard_solver_cache_hits_total{shard=\"%d\"} %d\n", i, es.Solver.CacheHits)
		p("phaged_shard_solver_sat_calls_total{shard=\"%d\"} %d\n", i, es.Solver.SATCalls)
		p("phaged_shard_baseline_cache_entries{shard=\"%d\"} %d\n", i, es.Baselines)
		p("phaged_shard_proof_cache_entries{shard=\"%d\"} %d\n", i, es.Proofs)
	}
	// Cluster families are always present (zero-valued on a standalone
	// node) so dashboards never see a family appear out of nowhere when
	// a node joins a ring.
	cs := s.clusterStats()
	p("phaged_cluster_peers %d\n", cs.Peers)
	p("phaged_cluster_draining %d\n", boolMetric(cs.Draining))
	p("phaged_cluster_forwards_total %d\n", cs.Forwards)
	p("phaged_cluster_forward_failures_total %d\n", cs.ForwardFailures)
	p("phaged_cluster_steals_total %d\n", cs.Steals)
	p("phaged_cluster_handoffs_total %d\n", cs.Handoffs)
	p("phaged_cluster_artifact_pulls_total %d\n", cs.ArtifactPulls)
	s.telemetry.WriteMetrics(w)
}
