package compile

import (
	"testing"

	"privagic/internal/exec"
	"privagic/internal/ir"
	"privagic/internal/minic"
	"privagic/internal/passes"
	"privagic/internal/prt"
)

// stubEnv satisfies exec.Env for pure-compute tests: compile-time
// queries answer neutrally, runtime seams fail the test if reached, and
// compiled-to-compiled activations are counted.
type stubEnv struct {
	t      *testing.T
	enters int
}

func (e *stubEnv) GlobalAddr(g *ir.Global) exec.Val   { return exec.IV(0x1000) }
func (e *stubEnv) FuncValue(fn *ir.Function) exec.Val { return exec.IV(1) }
func (e *stubEnv) ElemStride(elem ir.Type) int64      { return elem.Size() }
func (e *stubEnv) Alloca(w *prt.Worker, t *ir.Alloca) exec.Val {
	e.t.Fatalf("unexpected Alloca %s", t)
	return exec.Val{}
}
func (e *stubEnv) Malloc(w *prt.Worker, t *ir.Malloc, count exec.Val) exec.Val {
	e.t.Fatalf("unexpected Malloc %s", t)
	return exec.Val{}
}
func (e *stubEnv) Load(w *prt.Worker, t *ir.Load, addr uint64) exec.Val {
	e.t.Fatalf("unexpected Load %s", t)
	return exec.Val{}
}
func (e *stubEnv) Store(w *prt.Worker, t *ir.Store, addr uint64, v exec.Val) {
	e.t.Fatalf("unexpected Store %s", t)
}
func (e *stubEnv) FieldAddr(w *prt.Worker, t *ir.FieldAddr, base exec.Val) exec.Val {
	e.t.Fatalf("unexpected FieldAddr %s", t)
	return exec.Val{}
}
func (e *stubEnv) ChunkHome(fn *ir.Function) (chunk, worker int, ok bool) { return 0, 0, false }
func (e *stubEnv) Enter(w *prt.Worker, fused int) {
	if fused != -1 {
		e.t.Errorf("Enter(fused=%d) for a function that is not a chunk", fused)
	}
	e.enters++
}
func (e *stubEnv) Call(w *prt.Worker, t *ir.Call, callee exec.Val, args []exec.Val) exec.Val {
	e.t.Fatalf("unexpected Call %s", t)
	return exec.Val{}
}

// buildFn compiles a MiniC source through the pass pipeline and returns
// the named function.
func buildFn(t *testing.T, src, name string) *ir.Function {
	t.Helper()
	mod, err := minic.Compile("test.c", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	passes.RunAll(mod)
	fn := mod.Func(name)
	if fn == nil {
		t.Fatalf("no function %q", name)
	}
	return fn
}

// loopSrc has a φ-carrying loop plus a diamond, exercising slot
// assignment, block layout, and edge copies.
const loopSrc = `
long work(long n, long seed) {
	long acc = seed;
	for (long i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) {
			acc = acc + i * 3;
		} else {
			acc = acc - i;
		}
	}
	return acc;
}
`

// TestSlotAllocation checks the frame-slot invariants: parameters occupy
// the leading slots in order, every value-producing instruction gets a
// unique slot, and NumSlots is exactly the count of assigned slots.
func TestSlotAllocation(t *testing.T) {
	fn := buildFn(t, loopSrc, "work")
	u := New([]*ir.Function{fn}, &stubEnv{t: t}, Options{})
	cf := u.Fn(fn)
	if cf == nil {
		t.Fatal("function was not compiled")
	}
	if cf.NumParams != len(fn.Params) {
		t.Fatalf("NumParams = %d, want %d", cf.NumParams, len(fn.Params))
	}
	for i, p := range fn.Params {
		s, ok := cf.SlotOf(p)
		if !ok || s != i {
			t.Errorf("param %d slot = %d (ok=%v), want %d", i, s, ok, i)
		}
	}
	seen := map[int]ir.Value{}
	record := func(v ir.Value) {
		s, ok := cf.SlotOf(v)
		if !ok {
			t.Errorf("value %v has no slot", v)
			return
		}
		if s < 0 || s >= cf.NumSlots {
			t.Errorf("value %v slot %d outside [0,%d)", v, s, cf.NumSlots)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("slot %d assigned to both %v and %v", s, prev, v)
		}
		seen[s] = v
	}
	for _, p := range fn.Params {
		record(p)
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if v, ok := in.(ir.Value); ok {
				record(v)
			}
		}
	}
	if len(seen) != cf.NumSlots {
		t.Errorf("NumSlots = %d but %d slots assigned", cf.NumSlots, len(seen))
	}
}

// TestJumpResolution checks the block layout: each block's entry PC is
// the step index of its first non-φ instruction, blocks are laid out
// contiguously (φs contribute no steps), and the code length matches the
// layout total.
func TestJumpResolution(t *testing.T) {
	fn := buildFn(t, loopSrc, "work")
	u := New([]*ir.Function{fn}, &stubEnv{t: t}, Options{})
	cf := u.Fn(fn)
	if cf == nil {
		t.Fatal("function was not compiled")
	}
	pc := 0
	for _, b := range fn.Blocks {
		got, ok := cf.BlockPC(b)
		if !ok {
			t.Fatalf("block %%%s has no PC", b.BName)
		}
		if got != pc {
			t.Errorf("block %%%s PC = %d, want %d", b.BName, got, pc)
		}
		nphi := 0
		for _, in := range b.Instrs {
			if _, isPhi := in.(*ir.Phi); !isPhi {
				break
			}
			nphi++
		}
		pc += len(b.Instrs) - nphi
		if b.Terminator() == nil {
			pc++
		}
	}
	if len(cf.Code) != pc {
		t.Errorf("len(Code) = %d, want %d from the block layout", len(cf.Code), pc)
	}
	if u.Steps != len(cf.Code) {
		t.Errorf("Unit.Steps = %d, want %d", u.Steps, len(cf.Code))
	}
}

// TestCompiledLoopExecutes runs the compiled loop on a bare frame (no
// seams needed after mem2reg: the body is pure arithmetic and φs) and
// checks the result against a Go reimplementation — including the φ
// parallel-copy semantics the loop's carried values depend on.
func TestCompiledLoopExecutes(t *testing.T) {
	fn := buildFn(t, loopSrc, "work")
	u := New([]*ir.Function{fn}, &stubEnv{t: t}, Options{})
	cf := u.Fn(fn)
	if cf == nil {
		t.Fatal("function was not compiled")
	}
	model := func(n, seed int64) int64 {
		acc := seed
		for i := int64(0); i < n; i++ {
			if i%2 == 0 {
				acc += i * 3
			} else {
				acc -= i
			}
		}
		return acc
	}
	for _, tc := range [][2]int64{{0, 5}, {1, 0}, {7, -3}, {100, 12345}} {
		fr := &exec.Frame{Regs: make([]exec.Val, cf.NumSlots), Env: &stubEnv{t: t}}
		fr.Regs[0] = exec.IV(tc[0])
		fr.Regs[1] = exec.IV(tc[1])
		got := exec.Run(cf.Code, fr)
		if want := model(tc[0], tc[1]); got.I != want {
			t.Errorf("work(%d, %d) = %d, want %d", tc[0], tc[1], got.I, want)
		}
	}
}

// TestEmptyAndDuplicateFunctionsSkipped checks New's input hygiene.
func TestEmptyAndDuplicateFunctionsSkipped(t *testing.T) {
	fn := buildFn(t, loopSrc, "work")
	empty := &ir.Function{FName: "empty"}
	u := New([]*ir.Function{fn, fn, nil, empty}, &stubEnv{t: t}, Options{})
	if u.Len() != 1 {
		t.Errorf("Len = %d, want 1 (duplicates, nils, and empty bodies skipped)", u.Len())
	}
	if u.Fn(empty) != nil {
		t.Error("empty function was compiled")
	}
}

// callSrc has a recursive helper and a loop that calls it.
const callSrc = `
long down(long n) {
	if (n == 0) { return 0; }
	return down(n - 1) + 1;
}
long spin(long n) {
	long s = 0;
	for (long i = 0; i < n; i = i + 1) {
		s = s + down(20);
	}
	return s;
}
`

// TestDirectCallsBudgetPerActivation runs compiled-to-compiled calls
// and checks the step budget is per activation, as the interpreter's
// is: spin's own branches count against its frame, the 210 activations
// of down each start a fresh budget on a pooled frame, and Env.Enter
// sees every one of them.
func TestDirectCallsBudgetPerActivation(t *testing.T) {
	mod, err := minic.Compile("test.c", callSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	passes.RunAll(mod)
	env := &stubEnv{t: t}
	u := New([]*ir.Function{mod.Func("spin"), mod.Func("down")}, env, Options{})
	spin := u.Fn(mod.Func("spin"))
	run := func(headroom int) (v exec.Val, err error) {
		defer func() {
			if r := recover(); r != nil {
				re, ok := r.(exec.RuntimeErr)
				if !ok {
					panic(r)
				}
				err = re.Err
			}
		}()
		fr := exec.PoolOf(nil).Frame(nil, env, spin.NumSlots)
		fr.Regs[0] = exec.IV(10)
		fr.Steps = exec.StepBudget - headroom
		return exec.RunPooled(spin.Code, fr), nil
	}
	// spin(10) takes ~21 branches itself; its callees take 210 more.
	if v, err := run(50); err != nil || v.I != 200 {
		t.Fatalf("spin(10) with 50 steps of headroom = %v, %v; want 200", v, err)
	}
	if env.enters != 210 {
		t.Errorf("Env.Enter saw %d activations, want 210", env.enters)
	}
	_, err = run(5)
	if want := "interp: instruction budget exceeded in @spin (livelock?)"; err == nil || err.Error() != want {
		t.Errorf("spin(10) with 5 steps of headroom: error %v, want %q", err, want)
	}
}
