// Command perfbench is the repository benchmark. It drives the Code
// Phage reproduction through its public entry points and prints one
// JSON result line:
//
//	{"correct": true, "attempted": 18, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload figure8-warm --seed 1 --seconds 40 --trace 0
//
// Workloads:
//
//   - figure8-warm: the paper's 18-row Figure 8 catalogue through
//     figure8.BatchRows, repeated until --seconds have passed (at least
//     twice), each repetition on a fresh engine, compile cache and
//     constraint service loaded from the workload's snapshot.
//   - scenario-http: a generated 100-pair conformance suite (seed 6000,
//     the suite CI runs) sent as donor:"auto" requests by two
//     closed-loop clients to an in-process phaged, then sent again in
//     an order --seed gives, which must be served by dedup. Passes
//     repeat until --seconds have passed (at least twice), each on a
//     fresh phaged booted from the workload's snapshot, as a restarted
//     phaged boots from its persisted memo.
//
// A workload's snapshot is its constraint service's verdict memo after
// one cold pass, so neither workload's measured passes make SAT calls.
// On a 2-vCPU Xeon host, cold runs, whose time a few hard proofs set,
// spread by a quarter of their median between runs of the same code:
// too much for the benchmark's bounds. The Figure 8 catalogue and the
// suite are fixed inputs.
//
// With --trace 0 the result carries the end-to-end metrics: setup_s,
// batch_wall_s, batch_cpu_s, peak_rss_mb, request_p50_s and
// request_p90_s. A request is one unit a user waits on: one HTTP
// transfer for scenario-http (percentiles over every first-pass request
// of the run), one whole Figure 8 batch for figure8-warm. batch_wall_s,
// batch_cpu_s and peak_rss_mb are medians over the repetitions or first
// passes. setup_s is what a run does before its measured phase: for
// figure8-warm loading the snapshot and error-input discovery through
// it, for scenario-http generating and registering the suite, booting
// phaged from the snapshot and building its corpus index. Set-up warms
// process-global state, so it is timed once in the run and once in
// each of two fresh child processes, and setup_s is the median. The
// benchmark's own correctness oracle is built outside every timed
// span. With --trace 1 the result carries the per-layer metrics
// instead, medians over the run's traced repetitions or passes (see
// trace.go); a metric of a layer the workload does not use reads 0.
//
// Every run is one fresh process: the bitvec interner, the default
// compile cache, figure8's error-input memo and the donor image cache
// are process-global.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values with their units.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

func (m metrics) seconds(name string, d time.Duration) { m.set(name, d.Seconds(), "s") }

// config is the parsed command line.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	stateDir  string
	pairs     int
	snapshot  bool
	setupOnly bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "figure8-warm or scenario-http")
	flag.Int64Var(&cfg.seed, "seed", 1, "run seed: orders the scenario-http repeat passes (the Figure 8 catalogue and the suite are fixed)")
	flag.IntVar(&cfg.seconds, "seconds", 40, "measured time per run (each workload repeats its pass until it has passed)")
	flag.IntVar(&trace, "trace", 0, "1 = print the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.stateDir, "state", ".bench_build/state", "directory for the workloads' memo snapshots")
	flag.IntVar(&cfg.pairs, "pairs", 100, "scenario-http suite size")
	flag.BoolVar(&cfg.snapshot, "snapshot", false, "internal: make the workload's snapshot with a cold pass and exit")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "internal: time the workload's set-up, print the seconds and exit")
	flag.Parse()
	cfg.trace = trace == 1

	if cfg.snapshot {
		if err := runSnapshot(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: snapshot: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if cfg.setupOnly {
		setup, err := runSetupOnly(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(setup.Seconds())
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(cfg config) (*result, error) {
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	hostFacts()
	switch cfg.workload {
	case "figure8-warm":
		return runWarm(cfg)
	case "scenario-http":
		return runScenario(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// setupSamples is how many fresh processes time a workload's set-up
// in an untraced run: the run itself and setupSamples-1 children
// started before it. setup_s is the median.
const setupSamples = 3

// childSetups times the workload's set-up in setupSamples-1 fresh
// child processes, one after another.
func childSetups(cfg config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 1; i < setupSamples; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", cfg.workload,
			"--pairs", strconv.Itoa(cfg.pairs), "--state", cfg.stateDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child output: %w", err)
		}
		setups = append(setups, v)
	}
	return setups, nil
}

// runSetupOnly is the body of a set-up child: the workload's set-up
// in this fresh process, timed.
func runSetupOnly(cfg config) (time.Duration, error) {
	snap, err := loadOrMakeSnapshot(cfg)
	if err != nil {
		return 0, err
	}
	switch cfg.workload {
	case "figure8-warm":
		_, setup, err := warmSetup(snap)
		return setup, err
	case "scenario-http":
		s, p, setup, err := scenarioSetup(cfg, snap)
		if err != nil {
			return 0, err
		}
		p.closeWarm()
		s.unregister()
		return setup, nil
	}
	return 0, fmt.Errorf("unknown workload %q", cfg.workload)
}

// A workload's snapshot is a verdict-memo snapshot of the constraint
// service after one cold pass of that workload. It is made once per
// build, in a fresh child process so no cache of the measuring process
// warms it, and kept under --state; it is never made inside a timed
// phase.

// snapshotPath names a workload's snapshot after the workload, its
// size and the benchmark binary, so a snapshot is only ever reused by
// the build and inputs that produced it.
func snapshotPath(cfg config) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-%d-%s.snap", cfg.workload, cfg.pairs, hex.EncodeToString(h.Sum(nil))[:16])
	return filepath.Join(cfg.stateDir, name), nil
}

// loadOrMakeSnapshot returns the workload's snapshot, producing it
// first in a child process when no run has yet.
func loadOrMakeSnapshot(cfg config) ([]byte, error) {
	path, err := snapshotPath(cfg)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err == nil {
		return data, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--snapshot", "--workload", cfg.workload,
		"--pairs", strconv.Itoa(cfg.pairs), "--state", cfg.stateDir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("making the %s snapshot: %w", cfg.workload, err)
	}
	return os.ReadFile(path)
}

// runSnapshot is the body of the snapshot child.
func runSnapshot(cfg config) error {
	switch cfg.workload {
	case "figure8-warm":
		return runWarmSnapshot(cfg)
	case "scenario-http":
		return runHTTPSnapshot(cfg)
	}
	return fmt.Errorf("unknown workload %q", cfg.workload)
}

// hostFacts records the host beside the numbers, on stderr.
func hostFacts() {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: host nproc=%d cpu=%q go=%s\n", runtime.NumCPU(), model, runtime.Version())
}

// usage is a process resource snapshot.
type usage struct {
	wall time.Time
	cpu  time.Duration // user + system
}

func now() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since returns the wall and CPU time elapsed from u.
func (u usage) since() (wall, cpu time.Duration) {
	n := now()
	return n.wall.Sub(u.wall), n.cpu - u.cpu
}

// peakRSSMB is the process's peak resident set size in MiB since it
// started or since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kib); err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the peak resident set size at the current one.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs need not be sorted; 0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
