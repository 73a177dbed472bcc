package interp

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"privagic/internal/exec"
	"privagic/internal/ir"
	"privagic/internal/prt"
	"privagic/internal/sources"
	"privagic/internal/typing"
)

// The frame-pool safety rules (exec.Pool), each checked on the
// interpreter, the compiled tier and the differential oracle.

var allEngines = []prt.Engine{prt.EngineInterp, prt.EngineCompiled, prt.EngineDifferential}

func buildOn(t *testing.T, eng prt.Engine, mode typing.Mode, src string, entries ...string) *Interp {
	t.Helper()
	ip := build(t, mode, src, entries...)
	if err := ip.SetEngine(eng); err != nil {
		t.Fatalf("SetEngine(%v): %v", eng, err)
	}
	return ip
}

// TestDeepRecursionAgrees recurses 1500 calls deep, deeper than the
// pool keeps frames for, twice on each instance (the second call reuses
// pooled frames), and requires the same result from every engine.
func TestDeepRecursionAgrees(t *testing.T) {
	src := `
long depth(long n) {
	if (n == 0) { return 0; }
	return depth(n - 1) + 1;
}
entry long main(long n) {
	return depth(n);
}
`
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			ip := buildOn(t, eng, typing.Relaxed, src, "main")
			for _, n := range []int64{1500, 1200} {
				if got, err := ip.Call("main", n); err != nil || got != n {
					t.Fatalf("main(%d) = %d, %v; want %d", n, got, err, n)
				}
			}
			// main's chunk plus n+1 activations of depth, per call.
			if st := ip.ExecStats(); eng == prt.EngineCompiled && st.CompiledDispatches != 1502+1202 {
				t.Errorf("CompiledDispatches = %d, want one per activation (%d)", st.CompiledDispatches, 1502+1202)
			}
		})
	}
}

// TestNestedErrorDropsFrames raises a runtime error 40 calls deep. Every
// engine must report the same error text, and the next Call on the same
// instance must return the right result: the frames the error unwound
// through were dropped, not handed back to the pool half-written.
func TestNestedErrorDropsFrames(t *testing.T) {
	src := `
long dive(long n, long d) {
	if (n == 0) { return 10 / d; }
	long below = dive(n - 1, d);
	return below + n;
}
entry long main(long n, long d) {
	return dive(n, d);
}
`
	want := int64(10/5 + 40*41/2)
	var errText string
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			ip := buildOn(t, eng, typing.Relaxed, src, "main")
			if got, err := ip.Call("main", 40, 5); err != nil || got != want {
				t.Fatalf("main(40, 5) = %d, %v; want %d", got, err, want)
			}
			_, err := ip.Call("main", 40, 0)
			if err == nil || !strings.Contains(err.Error(), "integer division by zero") {
				t.Fatalf("main(40, 0) error = %v, want division by zero", err)
			}
			if errText == "" {
				errText = err.Error()
			} else if err.Error() != errText {
				t.Errorf("error text %q, the interpreter's %q", err, errText)
			}
			for i := 0; i < 3; i++ {
				if got, err := ip.Call("main", 40, 5); err != nil || got != want {
					t.Fatalf("main(40, 5) after the error = %d, %v; want %d", got, err, want)
				}
			}
		})
	}
}

// TestRestartedWorkerStartsWithoutPool checks that a supervision restart
// hands the replacement worker an empty pool slot: it builds its own pool
// on its first compiled activation and never sees its predecessor's.
func TestRestartedWorkerStartsWithoutPool(t *testing.T) {
	ip := buildOn(t, prt.EngineCompiled, typing.Relaxed, `
long color(red) counter = 0;
long bump(long d) {
	counter = counter + d;
	return counter;
}
entry long main() {
	long t = 0;
	for (long i = 1; i <= 10; i = i + 1) {
		t = bump(i);
	}
	return t;
}
`, "main")
	if got, err := ip.Call("main"); err != nil || got != 55 {
		t.Fatalf("main() = %d, %v; want 55", got, err)
	}
	th := ip.mainThread()
	old := th.Worker(1)
	oldPool, _ := old.Exec.(*exec.Pool)
	if oldPool == nil {
		t.Fatal("the red worker ran compiled code but holds no pool")
	}
	th.RestartWorker(1)
	repl := th.Worker(1)
	if repl == old {
		t.Fatal("RestartWorker did not replace the worker")
	}
	if repl.Exec != nil {
		t.Fatalf("the replacement worker inherited a pool slot: %v", repl.Exec)
	}
	if got, err := ip.Call("main"); err != nil || got != 110 {
		t.Fatalf("main() after the restart = %d, %v; want 110", got, err)
	}
	if p, _ := repl.Exec.(*exec.Pool); p == nil || p == oldPool {
		t.Errorf("replacement pool = %p, predecessor's = %p; want a pool of its own", p, oldPool)
	}
}

// TestCallArgumentsNotRetained calls the Env.Call seam with one argument
// buffer the way a compiled frame does, overwriting the buffer between
// and after the calls: the differential recorder's builtin and indirect
// call records must keep the values the calls saw.
func TestCallArgumentsNotRetained(t *testing.T) {
	ip := build(t, typing.Relaxed, `
ignore long reveal(long v);
entry long twice(long x) { return x * 2; }
long apply(long (*f)(long), long v) { return f(v); }
entry long main(long v) { return apply(twice, reveal(v)); }
`, "twice", "main")
	if got, err := ip.Call("main", 21); err != nil || got != 42 {
		t.Fatalf("main(21) = %d, %v; want 42", got, err)
	}
	var builtin, indirect *ir.Call
	for _, fn := range ip.Prog.CompileSet() {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				c, ok := in.(*ir.Call)
				if !ok {
					continue
				}
				if f, direct := c.Callee.(*ir.Function); !direct {
					indirect = c
				} else if f.FName == "reveal" {
					builtin = c
				}
			}
		}
	}
	if builtin == nil || indirect == nil {
		t.Fatalf("program lacks a reveal call (%v) or an indirect call (%v)", builtin, indirect)
	}
	w := ip.mainThread().Normal()
	rec := &diffRecorder{}
	w.Diff = rec
	defer func() { w.Diff = nil }()
	args := []val{iv(7)}
	if got := ip.dispatchCall(w, builtin, val{}, args); got.I != 7 {
		t.Fatalf("reveal(7) = %d", got.I)
	}
	args[0] = iv(5)
	if got := ip.dispatchCall(w, indirect, iv(int64(ip.internFunc("twice"))), args); got.I != 10 {
		t.Fatalf("twice(5) through a function pointer = %d", got.I)
	}
	args[0] = iv(-1)
	if len(rec.ops) != 2 || rec.ops[0].kind != opCall || rec.ops[1].kind != opInvoke {
		t.Fatalf("recorded %v, want one call and one invoke", rec.ops)
	}
	if v := rec.ops[0].vec[0].I; v != 7 {
		t.Errorf("recorded reveal argument = %d, want 7", v)
	}
	if v := rec.ops[1].vec[0].I; v != 5 {
		t.Errorf("recorded invoke argument = %d, want 5", v)
	}
}

// TestCompiledReplicasInParallel runs the two-color hashmap's warm calls
// with the replicated map_get/map_put chunks on four Go processors, so
// replicas run the same compiled helpers on different workers at once,
// each worker on its own pool. The race detector run (make tier2) is
// what gives this test its teeth. The first call, which fills the map,
// runs on one processor: cold calls with parallel replicas can hit the
// replicated-chunk liveness hang (ROADMAP item 1), which is not what
// this test is about. The warm call results must match the
// interpreter's.
func TestCompiledReplicasInParallel(t *testing.T) {
	const calls = 3
	run := func(eng prt.Engine) []int64 {
		ip := buildOn(t, eng, typing.Relaxed, sources.HashmapColored2, "run_ycsb")
		ip.EnableSupervision(prt.Supervision{WaitTimeout: 20 * time.Second})
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		var out []int64
		for i := 0; i < calls; i++ {
			got, err := ip.Call("run_ycsb")
			if err != nil {
				t.Fatalf("%v: run_ycsb call %d: %v", eng, i, err)
			}
			out = append(out, got)
			runtime.GOMAXPROCS(4)
		}
		return out
	}
	want := run(prt.EngineInterp)
	got := run(prt.EngineCompiled)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run_ycsb call %d: compiled %d, interp %d", i, got[i], want[i])
		}
	}
}
