package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"codephage/internal/telemetry"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// runBench runs the built benchmark and decodes its result line.
func runBench(t *testing.T, bin string, args ...string) *result {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: result line: %v", args, err)
	}
	return &res
}

func checkResult(t *testing.T, what string, res *result, want []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	var got []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s: metrics\n got %v\nwant %v", what, got, want)
	}
}

// TestSelfCheck runs a reduced figure8-warm (two repetitions, after the
// cold batch that makes its snapshot) and a four-pair scenario-http
// (one second of passes, after the cold pass that makes its snapshot),
// untraced and traced. Every operation must pass its check, every
// metric BENCHMARK.json declares must be printed, and neither workload
// may make a SAT call. It takes a few minutes:
//
//	cd perfbench && go test -run SelfCheck .
func TestSelfCheck(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	state := filepath.Join(dir, "state")

	warm := []string{"--workload", "figure8-warm", "--seconds", "1", "--state", state}
	res := runBench(t, bin, append(warm, "--trace", "0")...)
	checkResult(t, "figure8-warm", res, endToEnd)
	if res.Attempted != 2*18 {
		t.Errorf("figure8-warm attempted %d operations, want 36", res.Attempted)
	}
	res = runBench(t, bin, append(warm, "--trace", "1")...)
	checkResult(t, "figure8-warm traced", res, perLayer)
	if n := res.Metrics["smt.sat_calls"].Value; n != 0 {
		t.Errorf("figure8-warm made %v SAT calls, want 0", n)
	}

	http := []string{"--workload", "scenario-http", "--pairs", "4", "--seconds", "1", "--state", state}
	res = runBench(t, bin, append(http, "--trace", "0")...)
	checkResult(t, "scenario-http", res, endToEnd)
	if res.Attempted < 2*2*4 || res.Attempted%(2*4) != 0 {
		t.Errorf("scenario-http attempted %d operations, want whole passes of 8 and at least 2", res.Attempted)
	}
	res = runBench(t, bin, append(http, "--trace", "1")...)
	checkResult(t, "scenario-http traced", res, perLayer)
	if n := res.Metrics["server.dedup_hits"].Value; n != 4 {
		t.Errorf("scenario-http counted %v dedup hits, want 4", n)
	}
	if n := res.Metrics["smt.sat_calls"].Value; n != 0 {
		t.Errorf("scenario-http made %v SAT calls, want 0", n)
	}
}

// TestAttribute pins the stage attribution: a non-stage span's self
// time goes to its nearest stage ancestor, and only the outermost
// stage spans count as covered.
func TestAttribute(t *testing.T) {
	span := func(name string, d time.Duration, children ...*telemetry.Span) *telemetry.Span {
		s := telemetry.New(name)
		s.SetDuration(d)
		s.Children = children
		return s
	}
	root := span("Transfer", 10*time.Second,
		span(telemetry.StageDiscover, 3*time.Second, span("Compile", time.Second)),
		span(telemetry.StageValidate, 4*time.Second,
			span("ReplayError", time.Second),
			span(telemetry.StageRescan, 2*time.Second)))
	self := map[string]time.Duration{}
	covered := attribute(root, "", self)
	if covered != 7*time.Second {
		t.Errorf("covered %v, want 7s", covered)
	}
	want := map[string]time.Duration{
		telemetry.StageDiscover: 3 * time.Second,
		telemetry.StageValidate: 2 * time.Second,
		telemetry.StageRescan:   2 * time.Second,
	}
	for stage, d := range want {
		if self[stage] != d {
			t.Errorf("%s self time %v, want %v", stage, self[stage], d)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
