package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"codephage/internal/apps"
	"codephage/internal/compile"
	"codephage/internal/figure8"
	"codephage/internal/pipeline"
	"codephage/internal/smt"
	"codephage/internal/vm"
)

// row is one Figure 8 catalogue row, in figure8.BatchRows order.
type row struct {
	tgt   *apps.Target
	donor string
}

func (r row) String() string { return fmt.Sprintf("%s/%s<-%s", r.tgt.Recipient, r.tgt.ID, r.donor) }

func catalogueRows() []row {
	var rows []row
	for _, tgt := range apps.Targets() {
		for _, d := range tgt.Donors {
			rows = append(rows, row{tgt: tgt, donor: d})
		}
	}
	return rows
}

// oracle judges one finished row against the unpatched recipient.
type oracle struct {
	// refs holds the unpatched recipient's behaviour on its format's
	// regression suite, keyed by recipient and format.
	refs map[string][]pipeline.Behaviour

	mu      sync.Mutex
	verdict map[string]error // row + patched source -> verdict
}

// newOracle compiles every catalogue recipient outside any shared
// cache and records its regression-suite behaviour.
func newOracle() (*oracle, error) {
	o := &oracle{refs: map[string][]pipeline.Behaviour{}, verdict: map[string]error{}}
	for _, tgt := range apps.Targets() {
		key := tgt.Recipient + "\x00" + tgt.Format
		if o.refs[key] != nil {
			continue
		}
		app, err := apps.ByName(tgt.Recipient)
		if err != nil {
			return nil, err
		}
		mod, err := compile.CompileSource(app.Name, app.Source)
		if err != nil {
			return nil, err
		}
		o.refs[key] = pipeline.Observe(mod, apps.RegressionSuite(tgt.Format), 0)
	}
	return o, nil
}

// check fails a row whose transfer errored, whose patched source,
// compiled independently, still traps on the row's error input, or
// whose regression-suite behaviour differs from the unpatched
// recipient's. Verdicts are memoised per patched source: the check is
// a pure function of it.
func (o *oracle) check(r row, res *pipeline.Result, err error) error {
	if err != nil {
		return err
	}
	key := r.String() + "\x00" + res.FinalSource
	o.mu.Lock()
	v, ok := o.verdict[key]
	o.mu.Unlock()
	if ok {
		return v
	}
	v = o.judge(r, res.FinalSource)
	o.mu.Lock()
	o.verdict[key] = v
	o.mu.Unlock()
	return v
}

func (o *oracle) judge(r row, src string) error {
	mod, err := compile.CompileSource(r.tgt.Recipient, src)
	if err != nil {
		return fmt.Errorf("patched source does not compile: %w", err)
	}
	errIn, err := figure8.ErrorInputFor(r.tgt)
	if err != nil {
		return err
	}
	if res := vm.NewRunner(mod).Run(errIn); !res.OK() {
		return fmt.Errorf("patched recipient still traps on the error input: %v", res.Trap)
	}
	got := pipeline.Observe(mod, apps.RegressionSuite(r.tgt.Format), 0)
	want := o.refs[r.tgt.Recipient+"\x00"+r.tgt.Format]
	for i := range want {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("regression input %d diverges from the unpatched recipient", i)
		}
	}
	return nil
}

// tally counts operations and their failures.
type tally struct {
	attempted, failed int
}

func (t *tally) add(op string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", op, err)
	}
}

// result reports the tally with the given metrics.
func (t *tally) result(m metrics) *result {
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// batchWorkers is the Figure 8 batch concurrency: one transfer per CPU.
func batchWorkers() int { return runtime.NumCPU() }

// freshEngine returns an engine with its own compile cache over svc.
func freshEngine(svc *smt.Service) *pipeline.Engine {
	eng := pipeline.NewEngine()
	eng.Compiler = compile.NewCache(0)
	eng.Service = svc
	return eng
}

// pass is one measured Figure 8 batch.
type pass struct {
	wall, cpu time.Duration
	rows      []*figure8.Row
}

// batchPass runs the catalogue through figure8.BatchRows on a fresh
// engine over svc, with tracing off.
func batchPass(svc *smt.Service) *pass {
	batch := &pipeline.Batch{Engine: freshEngine(svc), Workers: batchWorkers()}
	u := now()
	rows, _ := figure8.BatchRows(pipeline.Options{Service: svc}, batch)
	p := &pass{rows: rows}
	p.wall, p.cpu = u.since()
	return p
}

// checkRows judges every row of a batch pass.
func checkRows(o *oracle, p *pass, t *tally) {
	for i, r := range catalogueRows() {
		fr := p.rows[i]
		t.add(r.String(), o.check(r, fr.Result, fr.Err))
	}
}

// checkTraced judges every row of a traced pass.
func checkTraced(o *oracle, tp *tracedRun, t *tally) {
	for i, r := range catalogueRows() {
		t.add(r.String()+" (traced)", o.check(r, tp.results[i], tp.errs[i]))
	}
}

// warmSetup is figure8-warm's set-up: a service loaded from the
// snapshot, then error-input discovery for every target through it, so
// every timed repetition does the same work. Discovery results are
// process-global, so it runs once per process.
func warmSetup(snap []byte) (discover, setup time.Duration, err error) {
	start := time.Now()
	svc, err := loadedService(snap)
	if err != nil {
		return 0, 0, err
	}
	discStart := time.Now()
	for _, tgt := range apps.Targets() {
		if _, err := figure8.NewTransfer(tgt, tgt.Donors[0], pipeline.Options{Service: svc}); err != nil {
			return 0, 0, fmt.Errorf("discovering %s/%s: %w", tgt.Recipient, tgt.ID, err)
		}
	}
	return time.Since(discStart), time.Since(start), nil
}

func runWarm(cfg config) (*result, error) {
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
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	discover, setup, err := warmSetup(snap)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setup.Seconds())

	// In a traced run every untraced repetition is followed by a traced
	// one, so drift over the run weighs on both alike.
	var t tally
	var walls, cpus, tracedWalls []time.Duration
	var rss []float64
	var traced []metrics
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(walls) < 2 || time.Now().Before(deadline) {
		settle()
		svc, err := loadedService(snap)
		if err != nil {
			return nil, err
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		p := batchPass(svc)
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		checkRows(o, p, &t)
		if !cfg.trace {
			continue
		}
		settle()
		if svc, err = loadedService(snap); err != nil {
			return nil, err
		}
		tp := tracedPass(svc)
		// Discovery ran once, in set-up; the traced pass finds it done.
		tp.in.discover = discover
		checkTraced(o, tp, &t)
		tracedWalls = append(tracedWalls, tp.wall)
		traced = append(traced, tp.layers())
	}
	m := metrics{}
	wallS := durationsSeconds(walls)
	if !cfg.trace {
		m.set("setup_s", quantile(setups, 0.5), "s")
		m.set("batch_wall_s", quantile(wallS, 0.5), "s")
		m.set("batch_cpu_s", quantile(durationsSeconds(cpus), 0.5), "s")
		// The median repetition's peak: each repetition's heap is its own.
		m.set("peak_rss_mb", quantile(rss, 0.5), "MB")
		m.set("request_p50_s", quantile(wallS, 0.5), "s")
		m.set("request_p90_s", quantile(wallS, 0.9), "s")
		return t.result(m), nil
	}
	// The per-layer metrics are medians over the traced repetitions.
	for _, name := range layerNames {
		var vals []float64
		for _, l := range traced {
			vals = append(vals, l[name].Value)
		}
		m.set(name, quantile(vals, 0.5), traced[0][name].Unit)
	}
	m.set("telemetry.overhead_s", quantile(durationsSeconds(tracedWalls), 0.5)-quantile(wallS, 0.5), "s")
	return t.result(m), nil
}

// settle collects the previous repetition's garbage and returns it to
// the OS, so no repetition pays for or peaks on another's heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func loadedService(snap []byte) (*smt.Service, error) {
	svc := smt.NewService(smt.Config{})
	if err := svc.LoadMemoBytes(snap); err != nil {
		return nil, fmt.Errorf("loading the warm snapshot: %w", err)
	}
	return svc, nil
}

// runWarmSnapshot is the body of figure8-warm's snapshot child: one
// cold batch, whose verdict memo it stores.
func runWarmSnapshot(cfg config) error {
	svc := smt.NewService(smt.Config{})
	batchPass(svc)
	path, err := snapshotPath(cfg)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, svc.EncodeMemo(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
