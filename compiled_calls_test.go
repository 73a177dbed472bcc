package privagic

import (
	"testing"

	"privagic/internal/obs"
)

// allocLoopSrc is an entry loop that calls a helper and memcpy on every
// iteration; the loop runs in the vault enclave's worker.
const allocLoopSrc = `
long color(vault) total = 0;
char color(vault) src[64];
char color(vault) dst[64];

long mix(long a, long b) {
	return a * 31 + b;
}

entry long run(long n) {
	long s = 0;
	for (long i = 0; i < n; i++) {
		memcpy(dst, src, 64);
		s = mix(s, i);
	}
	total = total + s;
	return n;
}
`

// TestCompiledCallPathAllocFree pins the compiled call path at zero
// allocations per loop iteration: a direct call runs its callee on a
// pooled frame, and memcpy copies through the worker's scratch buffer.
// Running the loop for n and for 2n iterations and taking the
// difference cancels what one Call costs on its own (the spawn and join
// messages, the chunk harness).
func TestCompiledCallPathAllocFree(t *testing.T) {
	prog, err := Compile("alloc.c", allocLoopSrc, Options{Mode: Relaxed, Engine: EngineCompiled, Entries: []string{"run"}})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.Instantiate(nil)
	defer inst.Close()
	const n = 200
	call := func(iters int64) func() {
		return func() {
			if got, err := inst.Call("run", iters); err != nil || got != iters {
				t.Fatalf("run(%d) = %d, %v", iters, got, err)
			}
		}
	}
	// Warm the worker pools and the simulated memory up to their
	// steady-state sizes first.
	call(2 * n)()
	once := testing.AllocsPerRun(50, call(n))
	twice := testing.AllocsPerRun(50, call(2*n))
	if d := twice - once; d != 0 {
		t.Errorf("%d more loop iterations cost %.0f allocations (run(%d): %.0f, run(%d): %.0f); want 0",
			n, d, n, once, 2*n, twice)
	}
	if got := inst.ExecStats().CompiledDispatches; got == 0 {
		t.Error("the compiled engine dispatched nothing")
	}
}

// fusedCallSrc has one fusion site: enc_update (red) spawns the
// message-free unsafe chunk of note, which the crossing optimizer turns
// into a direct call run on the red worker.
const fusedCallSrc = `
long color(red) audit_key;
long audit_count;

void note(long v) { audit_count = audit_count + v; }

void enc_update(long i) {
    audit_key = audit_key + i;
    note(i);
}

entry long run_loop(long n) {
    long sum = 0;
    for (long i = 0; i < n; i++) {
        enc_update(i);
        sum = sum + 1;
    }
    return sum + audit_count;
}
`

// TestCompiledCallCounters checks the counters a compiled-to-compiled
// call must keep exact: every cross.* metric matches the interpreter's,
// the fused_call trace events match cross.fused_calls, and
// exec.compiled_dispatches counts every activation. One run_loop(n) call
// activates two chunks at the top (the spawned red chunk and the U
// chunk) and two per iteration (enc_update's red chunk and the fused
// note chunk).
func TestCompiledCallCounters(t *testing.T) {
	run := func(eng Engine, n int64) (map[string]int64, int) {
		t.Helper()
		prog, err := Compile("fused.c", fusedCallSrc, Options{Mode: Relaxed, OptimizeCrossings: true, Engine: eng, Entries: []string{"run_loop"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.CrossingOpt.Fused) != 1 {
			t.Fatalf("fused %d spawn sites, want 1", len(prog.CrossingOpt.Fused))
		}
		inst := prog.Instantiate(nil)
		defer inst.Close()
		inst.EnableObservability(ObservabilityOptions{Metrics: true, Trace: true})
		got, err := inst.Call("run_loop", n)
		if want := n + n*(n-1)/2; err != nil || got != want {
			t.Fatalf("%v: run_loop(%d) = %d, %v; want %d", eng, n, got, err, want)
		}
		events := 0
		for _, e := range inst.TraceEvents() {
			if e.Kind == obs.EvFusedCall {
				events++
			}
		}
		return inst.MetricsSnapshot(), events
	}
	for _, n := range []int64{4, 9} {
		ref, refEvents := run(EngineInterp, n)
		if ref["cross.fused_calls"] != n || int64(refEvents) != n {
			t.Fatalf("interp: cross.fused_calls = %d, fused_call events = %d; want %d each", ref["cross.fused_calls"], refEvents, n)
		}
		for _, eng := range []Engine{EngineCompiled, EngineDifferential} {
			snap, events := run(eng, n)
			for _, name := range []string{"cross.fused_calls", "cross.vec_sends", "cross.vec_waits", "cross.elem_reads"} {
				if snap[name] != ref[name] {
					t.Errorf("%v n=%d: %s = %d, interp %d", eng, n, name, snap[name], ref[name])
				}
			}
			if events != refEvents {
				t.Errorf("%v n=%d: %d fused_call events, interp %d", eng, n, events, refEvents)
			}
			wantDispatches := int64(0) // the oracle's live pass interprets
			if eng == EngineCompiled {
				wantDispatches = 2 + 2*n
			}
			if got := snap["exec.compiled_dispatches"]; got != wantDispatches {
				t.Errorf("%v n=%d: exec.compiled_dispatches = %d, want %d", eng, n, got, wantDispatches)
			}
		}
	}
}
