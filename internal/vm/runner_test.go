package vm

import (
	"testing"

	"codephage/internal/compile"
	"codephage/internal/ir"
)

// runnerWorkload exercises every memory region across runs: globals
// (mutated each run), a heap block sized from the input, stack frames,
// and the output stream.
const runnerWorkload = `
u32 counter;
u8 scratch[8];
void main() {
	counter = counter + 1;
	u32 n = (u32)in_u8();
	scratch[3] = (u8)n;
	u8* buf = (u8*)alloc((u64)(n + 1));
	if (buf == 0) {
		exit(2);
	}
	buf[n] = (u8)counter;
	out((u64)counter);
	out((u64)buf[n]);
	out((u64)scratch[3]);
	free(buf);
	exit(0);
}
`

func compileSrc(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := compile.CompileSource("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestRunnerMatchesFreshVM: every Reset must observe exactly the
// initial state — global mutations, heap blocks and outputs of the
// previous run must never leak into the next.
func TestRunnerMatchesFreshVM(t *testing.T) {
	mod := compileSrc(t, runnerWorkload)
	r := NewRunner(mod)
	inputs := [][]byte{{5}, {0}, {250}, {5}}
	for i, in := range inputs {
		fresh := New(mod, in).Run()
		reused := r.Run(in)
		if fresh.ExitCode != reused.ExitCode || (fresh.Trap == nil) != (reused.Trap == nil) {
			t.Fatalf("run %d: exit %d/%d trap %v/%v", i, fresh.ExitCode, reused.ExitCode, fresh.Trap, reused.Trap)
		}
		if len(fresh.Output) != len(reused.Output) {
			t.Fatalf("run %d: output %v vs %v", i, fresh.Output, reused.Output)
		}
		for j := range fresh.Output {
			if fresh.Output[j] != reused.Output[j] {
				t.Fatalf("run %d: output %v vs %v", i, fresh.Output, reused.Output)
			}
		}
		// counter starts at 0 every run: no global leakage.
		if len(reused.Output) > 0 && reused.Output[0] != 1 {
			t.Fatalf("run %d: counter = %d, global state leaked across Reset", i, reused.Output[0])
		}
	}
}

// TestRunnerOutputNotRecycled: Results retained from earlier runs must
// keep their output after later runs (the validator compares retained
// baselines against fresh runs).
func TestRunnerOutputNotRecycled(t *testing.T) {
	mod := compileSrc(t, runnerWorkload)
	r := NewRunner(mod)
	first := r.Run([]byte{7})
	want := append([]uint64(nil), first.Output...)
	r.Run([]byte{9})
	r.Run([]byte{11})
	for i := range want {
		if first.Output[i] != want[i] {
			t.Fatalf("retained output mutated by later runs: %v != %v", first.Output, want)
		}
	}
}

// TestRunnerTrapThenClean: a trapping run must not poison later runs.
func TestRunnerTrapThenClean(t *testing.T) {
	mod := compileSrc(t, `
void main() {
	u32 d = (u32)in_u8();
	out((u64)(100 / d));
	exit(0);
}
`)
	r := NewRunner(mod)
	if res := r.Run([]byte{0}); res.OK() {
		t.Fatal("divide by zero did not trap")
	}
	res := r.Run([]byte{4})
	if !res.OK() || len(res.Output) != 1 || res.Output[0] != 25 {
		t.Fatalf("clean run after trap: %v trap %v", res.Output, res.Trap)
	}
}

// TestRunnerMaxSteps: the step budget applies per run.
func TestRunnerMaxSteps(t *testing.T) {
	mod := compileSrc(t, `
void main() {
	u32 i = 0;
	while (i < 100000) {
		i = i + 1;
	}
	exit(0);
}
`)
	r := NewRunner(mod)
	r.MaxSteps = 50
	if res := r.Run(nil); res.OK() || res.Trap.Kind != TrapStepLimit {
		t.Fatalf("expected step-limit trap, got %v", res.Trap)
	}
	r.MaxSteps = 0
	if res := r.Run(nil); !res.OK() {
		t.Fatalf("default budget run failed: %v", res.Trap)
	}
}

// loopWorkload runs 100 loop iterations per unit of its input byte,
// each calling a helper, touching globals and a heap block, and
// reading the frame.
const loopWorkload = `
u32 acc[4];
u32 step(u32 x, u32 k) {
	return x * 3 + k;
}
void main() {
	u32 n = (u32)in_u8() * 100;
	u32* cell = (u32*)alloc(16);
	u32 i = 0;
	while (i < n) {
		acc[i & 3] = step(acc[i & 3], i);
		cell[i & 3] = cell[i & 3] + acc[i & 3];
		i = i + 1;
	}
	out((u64)acc[0]);
	exit(0);
}
`

// TestRunnerUntracedAllocsFlat: an untraced run allocates per run, not
// per step. Ten times the loop iterations must cost exactly the same
// allocations, so a per-instruction or per-call allocation creeping
// back into the VM fails this test on any host and under -race.
func TestRunnerUntracedAllocsFlat(t *testing.T) {
	mod := compileSrc(t, loopWorkload)
	r := NewRunner(mod)
	allocs := func(input []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if res := r.Run(input); !res.OK() {
				t.Fatal(res.Trap)
			}
		})
	}
	short, long := allocs([]byte{10}), allocs([]byte{100})
	if short != long {
		t.Fatalf("untraced run allocations grow with work: %v at 1000 iterations, %v at 10000", short, long)
	}
}

func BenchmarkRunnerReuse(b *testing.B) {
	if testing.Short() {
		b.Skip("benchmark skipped in short mode")
	}
	mod := compileSrc2(b, runnerWorkload)
	in := []byte{16}
	b.Run("FreshVM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := New(mod, in).Run(); !r.OK() {
				b.Fatal(r.Trap)
			}
		}
	})
	b.Run("Runner", func(b *testing.B) {
		r := NewRunner(mod)
		for i := 0; i < b.N; i++ {
			if res := r.Run(in); !res.OK() {
				b.Fatal(res.Trap)
			}
		}
	})
}

func compileSrc2(b *testing.B, src string) *ir.Module {
	b.Helper()
	mod, err := compile.CompileSource("t", src)
	if err != nil {
		b.Fatal(err)
	}
	return mod
}
