package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"codephage/internal/apps"
	"codephage/internal/bitvec"
	"codephage/internal/corpus"
	"codephage/internal/pipeline"
	"codephage/internal/scenario"
	"codephage/internal/server"
)

// suiteSeed seeds the generated conformance suite: the one CI runs.
const suiteSeed = 6000

// scenarioClients is the number of closed-loop clients: each sends its
// next request only after the previous one is answered.
const scenarioClients = 2

// reply is one client-observed request.
type reply struct {
	env     *server.Envelope
	err     error
	latency time.Duration
}

// sendAll sends one donor:"auto" request per pair, in the given order,
// from scenarioClients closed-loop clients.
func sendAll(cli *server.Client, pairs []*scenario.Pair, order []int) []reply {
	replies := make([]reply, len(pairs))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < scenarioClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(order) {
					return
				}
				p := pairs[order[k]]
				start := time.Now()
				env, err := cli.Transfer(context.Background(), &server.Request{
					Recipient: p.Recipient.Name,
					Target:    p.Target.ID,
					Donor:     pipeline.AutoDonor,
				})
				replies[order[k]] = reply{env: env, err: err, latency: time.Since(start)}
			}
		}()
	}
	wg.Wait()
	return replies
}

// checkFirst fails a first-pass request that is not done, resolved a
// naive decoy donor, or fails the scenario oracle.
func checkFirst(p *scenario.Pair, r reply) error {
	if r.err != nil {
		return r.err
	}
	if r.env.Status != server.StatusDone {
		return fmt.Errorf("status %s: %s", r.env.Status, r.env.Error)
	}
	if strings.HasSuffix(r.env.Report.Donor, "-nai") {
		return fmt.Errorf("selection resolved the naive donor %s", r.env.Report.Donor)
	}
	return scenario.VerifyTransfer(p, r.env.Report.PatchedSource)
}

// checkRepeat fails a repeat that is not a dedup hit carrying the
// first pass's report bytes.
func checkRepeat(first, again reply) error {
	if again.err != nil {
		return again.err
	}
	if again.env.Status != server.StatusDone || !again.env.Dedup {
		return fmt.Errorf("repeat is not a dedup hit (status %s, dedup %v)", again.env.Status, again.env.Dedup)
	}
	if first.env == nil || first.env.Report == nil {
		return errors.New("first pass has no report")
	}
	a, err := first.env.Report.Marshal()
	if err != nil {
		return err
	}
	b, err := again.env.Report.Marshal()
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return errors.New("repeat report bytes differ from the first pass")
	}
	return nil
}

// suite is a generated conformance suite registered with the
// process's application registry.
type suite struct {
	pairs      []*scenario.Pair
	donors     []corpus.Donor
	loader     corpus.ModuleLoader
	replica    *indexReplica // set once a phaged has built the index
	indexBuild time.Duration // that build's time
	unregister func()
}

// newSuite generates the pairs and registers their applications and
// targets.
func newSuite(seed int64, count int) (*suite, error) {
	s := &suite{}
	var registered []*apps.App
	var targets []*apps.Target
	for i := 0; i < count; i++ {
		p, err := scenario.GeneratePair(seed + int64(i))
		if err != nil {
			return nil, fmt.Errorf("generating pair %d: %w", seed+int64(i), err)
		}
		s.pairs = append(s.pairs, p)
		registered = append(registered, p.Recipient, p.Donor, p.Naive)
		targets = append(targets, p.Target)
	}
	if err := apps.Register(registered...); err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, a := range registered {
		names[a.Name] = true
	}
	s.unregister = func() { apps.Unregister(func(name string) bool { return names[name] }) }
	if err := apps.RegisterTargets(targets...); err != nil {
		s.unregister()
		return nil, err
	}
	s.donors, s.loader = scenario.SuiteDonors(s.pairs)
	return s, nil
}

// phaged is an in-process phaged serving the suite over loopback HTTP.
type phaged struct {
	srv        *server.Server
	hs         *http.Server
	served     chan struct{}
	cli        *server.Client
	memoPath   string
	indexBuild time.Duration // building or installing the corpus index
}

// boot starts a fresh phaged with its corpus scoped to the suite and
// its constraint service persisted at memoPath (loaded now, saved on
// close). Its corpus index is the suite's replica when there is one,
// installed as a cluster node installs a replicated one; otherwise
// phaged builds it here.
func (s *suite) boot(memoPath string) (*phaged, error) {
	p := &phaged{memoPath: memoPath}
	p.srv = server.New(server.Config{
		CorpusDonors:     s.donors,
		CorpusLoader:     s.loader,
		MemoPath:         memoPath,
		MemoSaveInterval: -1, // saved on close only
	})
	p.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = p.srv.Shutdown(context.Background()) // no job was accepted yet
		return nil, err
	}
	p.hs = server.NewHTTPServer(p.srv.Handler())
	p.served = make(chan struct{})
	go func() {
		defer close(p.served)
		_ = p.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	p.cli = &server.Client{BaseURL: "http://" + ln.Addr().String()}

	start := time.Now()
	if s.replica != nil {
		err = s.replica.install(p.srv.Corpus())
	} else {
		_, err = p.srv.Corpus().Index()
	}
	p.indexBuild = time.Since(start)
	if err != nil {
		p.close()
		return nil, fmt.Errorf("establishing the corpus index: %w", err)
	}
	return p, nil
}

// indexReplica is a built corpus index and its fingerprint sidecar,
// encoded as the cluster replicates them.
type indexReplica struct {
	index, fingerprints []byte
}

func newIndexReplica(sel *corpus.Selector) (*indexReplica, error) {
	ix, err := sel.Index()
	if err != nil {
		return nil, err
	}
	fp := ix.Fingerprints()
	if fp == nil {
		fp = corpus.BuildFingerprints(ix)
	}
	r := &indexReplica{}
	if r.index, err = json.Marshal(ix); err != nil {
		return nil, err
	}
	if r.fingerprints, err = json.Marshal(fp); err != nil {
		return nil, err
	}
	return r, nil
}

// install decodes a private copy of the replica into sel.
func (r *indexReplica) install(sel *corpus.Selector) error {
	ix, err := corpus.Decode(r.index)
	if err != nil {
		return err
	}
	fp, err := corpus.DecodeFingerprints(r.fingerprints)
	if err != nil {
		return err
	}
	return sel.Install(ix, fp)
}

// close stops the HTTP server and phaged, which saves its memo, and
// waits for both.
func (p *phaged) close() {
	_ = p.hs.Close() // a close error leaves nothing to release
	<-p.served
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = p.srv.Shutdown(ctx) // accepted jobs are all answered by now
}

// bootWarm boots a phaged from a private copy of the snapshot, which
// close leaves behind for discard.
func (s *suite) bootWarm(cfg config, snap []byte) (*phaged, error) {
	path := filepath.Join(cfg.stateDir, fmt.Sprintf("phaged-%d.memo", os.Getpid()))
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		return nil, err
	}
	p, err := s.boot(path)
	if err != nil {
		_ = os.Remove(path) // the boot failed; nothing reads the copy
		return nil, err
	}
	return p, nil
}

// closeWarm closes a phaged from bootWarm and discards its memo copy.
func (p *phaged) closeWarm() {
	p.close()
	_ = os.Remove(p.memoPath) // a leftover copy is overwritten by the next boot
}

// scenarioSetup is scenario-http's set-up: generating and registering
// the suite, then booting phaged from the snapshot and building its
// corpus index.
func scenarioSetup(cfg config, snap []byte) (*suite, *phaged, time.Duration, error) {
	u := now()
	s, err := newSuite(suiteSeed, cfg.pairs)
	if err != nil {
		return nil, nil, 0, err
	}
	p, err := s.bootWarm(cfg, snap)
	if err != nil {
		s.unregister()
		return nil, nil, 0, err
	}
	setup, _ := u.since()
	return s, p, setup, nil
}

// runHTTPSnapshot is the body of scenario-http's snapshot child: one
// cold pass of the suite through a phaged that saves its memo as the
// snapshot when it closes.
func runHTTPSnapshot(cfg config) error {
	path, err := snapshotPath(cfg)
	if err != nil {
		return err
	}
	s, err := newSuite(suiteSeed, cfg.pairs)
	if err != nil {
		return err
	}
	defer s.unregister()
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	p, err := s.boot(tmp)
	if err != nil {
		return err
	}
	sendAll(p.cli, s.pairs, suiteOrder(len(s.pairs)))
	p.close()
	return os.Rename(tmp, path)
}

// suiteOrder is the first pass's order: the suite's own. Shuffling it
// moves which small requests overlap the slowest ones.
func suiteOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// httpPass is one measured scenario-http pass.
type httpPass struct {
	wall, cpu time.Duration
	rss       float64
	latency   []time.Duration
	layers    metrics // traced runs only
}

// runPass sends the suite through p once in its own order and once
// more in the order rng gives, which must be served by dedup, checks
// every reply, and closes p. Only the first pass is timed.
func runPass(s *suite, p *phaged, rng *rand.Rand, trace bool, t *tally) (*httpPass, error) {
	defer p.closeWarm()
	settle()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	before := p.srv.Stats()
	u := now()
	first := sendAll(p.cli, s.pairs, suiteOrder(len(s.pairs)))
	hp := &httpPass{}
	hp.wall, hp.cpu = u.since()
	mid := p.srv.Stats()
	interned := bitvec.Interned().Terms
	again := sendAll(p.cli, s.pairs, rng.Perm(len(s.pairs)))
	after := p.srv.Stats()
	var err error
	if hp.rss, err = peakRSSMB(); err != nil {
		return nil, err
	}

	var queue, run, hop, repeat []time.Duration
	for i, pair := range s.pairs {
		t.add(pair.Name(), checkFirst(pair, first[i]))
		t.add(pair.Name()+" (repeat)", checkRepeat(first[i], again[i]))
		hp.latency = append(hp.latency, first[i].latency)
		repeat = append(repeat, again[i].latency)
		if env := first[i].env; env != nil {
			q := time.Duration(env.QueueMs) * time.Millisecond
			r := time.Duration(env.RunMs) * time.Millisecond
			queue, run = append(queue, q), append(run, r)
			hop = append(hop, first[i].latency-q-r)
		}
	}
	if !trace {
		return hp, nil
	}

	// phaged records every job's span tree whatever the client asks,
	// so tracing adds only the fetches; the engine's run time (RunMs)
	// is the outside time the stage spans are attributed against.
	in := &layerInput{
		solverBefore:   before.Solver,
		solverAfter:    mid.Solver,
		interned:       interned,
		indexBuild:     s.indexBuild,
		prefilterCands: mid.Corpus.PrefilterCandidates - before.Corpus.PrefilterCandidates,
		prefilterFall:  mid.Corpus.PrefilterFallbacks - before.Corpus.PrefilterFallbacks,
		queue:          queue,
		run:            run,
		hop:            hop,
		repeat:         repeat,
		dedupHits:      after.DedupHits - mid.DedupHits,
	}
	in.compile.Hits = mid.Compile.Hits - before.Compile.Hits
	in.compile.Misses = mid.Compile.Misses - before.Compile.Misses
	start := time.Now()
	for i, r := range first {
		if r.env == nil || r.env.Status != server.StatusDone {
			continue
		}
		tr, err := p.cli.Trace(context.Background(), r.env.ID)
		t.add(s.pairs[i].Name()+" (trace)", err)
		if err != nil {
			continue
		}
		in.traces = append(in.traces, tr)
		in.outside = append(in.outside, time.Duration(r.env.RunMs)*time.Millisecond)
		in.proofs = append(in.proofs, r.env.Report.OverflowFreeProven)
	}
	overhead := time.Since(start)
	hp.layers = layerMetrics(in)
	hp.layers.seconds("telemetry.overhead_s", overhead)
	return hp, nil
}

func runScenario(cfg config) (*result, error) {
	snap, err := loadOrMakeSnapshot(cfg)
	if err != nil {
		return nil, err
	}
	var setups []float64
	if !cfg.trace {
		if setups, err = childSetups(cfg); err != nil {
			return nil, err
		}
	}
	s, p, setup, err := scenarioSetup(cfg, snap)
	if err != nil {
		return nil, err
	}
	defer s.unregister()
	setups = append(setups, setup.Seconds())
	s.indexBuild = p.indexBuild
	if s.replica, err = newIndexReplica(p.srv.Corpus()); err != nil {
		p.closeWarm()
		return nil, err
	}

	// Every pass runs on a fresh phaged booted from the snapshot: a
	// phaged that has served the suite answers it again by dedup. The
	// first is the one set-up booted, which built the corpus index; the
	// later ones install a replica of it.
	var t tally
	var passes []*httpPass
	rng := rand.New(rand.NewSource(cfg.seed))
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(passes) < 2 || time.Now().Before(deadline) {
		if p == nil {
			if p, err = s.bootWarm(cfg, snap); err != nil {
				return nil, err
			}
		}
		hp, err := runPass(s, p, rng, cfg.trace, &t)
		p = nil
		if err != nil {
			return nil, err
		}
		passes = append(passes, hp)
	}

	m := metrics{}
	if !cfg.trace {
		var walls, cpus, rss, latency []float64
		for _, hp := range passes {
			walls = append(walls, hp.wall.Seconds())
			cpus = append(cpus, hp.cpu.Seconds())
			rss = append(rss, hp.rss)
			latency = append(latency, durationsSeconds(hp.latency)...)
		}
		m.set("setup_s", quantile(setups, 0.5), "s")
		m.set("batch_wall_s", quantile(walls, 0.5), "s")
		m.set("batch_cpu_s", quantile(cpus, 0.5), "s")
		m.set("peak_rss_mb", quantile(rss, 0.5), "MB")
		// Over every first-pass request of the run.
		m.set("request_p50_s", quantile(latency, 0.5), "s")
		m.set("request_p90_s", quantile(latency, 0.9), "s")
		return t.result(m), nil
	}
	// The per-layer metrics are medians over the passes.
	for _, name := range layerNames {
		var vals []float64
		for _, hp := range passes {
			vals = append(vals, hp.layers[name].Value)
		}
		m.set(name, quantile(vals, 0.5), passes[0].layers[name].Unit)
	}
	return t.result(m), nil
}
