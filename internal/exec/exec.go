// Package exec is the execution contract shared by the two chunk
// execution tiers: the reference interpreter (internal/interp) and the
// closure compiler (internal/passes/compile).
//
// It owns the pieces both tiers must agree on bit-for-bit:
//
//   - Val, the machine value (an integer/encoded pointer or a float),
//     including its payload-integrity and mutation hooks for the prt
//     message layer;
//   - the arithmetic/comparison/cast semantics (BinOp, Cmp, Cast) — one
//     implementation, so a divergence between engines can never hide in
//     a re-implemented operator;
//   - RuntimeErr, the panic envelope every execution error travels in;
//   - Frame/Step/Run, the compiled tier's register machine, and Pool,
//     the per-worker recycler of its activation frames; and
//   - Env, the seam interface through which compiled code reaches the
//     interpreter's memory system, boundary defense, effect
//     transactions, replay journal, and call dispatcher. The compiled
//     tier never re-implements a seam: it calls the same methods the
//     interpreter's own instruction loop uses, which is what keeps
//     recovery, Iago defense, and observability identical across tiers
//     (DESIGN.md §18).
package exec

import (
	"errors"
	"fmt"
	"math"

	"privagic/internal/ir"
	"privagic/internal/prt"
)

// Val is one machine value: an integer (or encoded pointer) in I, or a
// float in F when Fl is set. Both engines compute exclusively in Vals,
// so "the engines returned the same Val" is a meaningful bitwise check.
type Val struct {
	// I holds the integer or encoded-pointer payload.
	I int64
	// F holds the float payload when Fl is true.
	F float64
	// Fl marks the value as a float.
	Fl bool
}

// IV makes an integer value.
func IV(x int64) Val { return Val{I: x} }

// FV makes a float value.
func FV(x float64) Val { return Val{F: x, Fl: true} }

// ToF reads the value as a float (integers convert).
func ToF(v Val) float64 {
	if v.Fl {
		return v.F
	}
	return float64(v.I)
}

// PaySum contributes a machine value's exact bits to a message's payload
// integrity tag (prt.PayloadSummer).
func (v Val) PaySum() uint64 {
	if v.Fl {
		return math.Float64bits(v.F) ^ 0xf10a7
	}
	return uint64(v.I)
}

// MutatePayload returns a copy of the value with its bits xored — the
// mutator adversary's in-place payload corruption, shaped so the mutated
// message still type-checks everywhere a Val is expected.
func (v Val) MutatePayload(xor uint64) any {
	if v.Fl {
		return Val{F: math.Float64frombits(math.Float64bits(v.F) ^ xor), Fl: true}
	}
	return Val{I: v.I ^ int64(xor)}
}

// RuntimeErr carries an execution error through panics; both engines
// panic with it and the interpreter's chunk harness recovers it.
type RuntimeErr struct {
	// Err is the underlying error.
	Err error
}

// Errf panics with a formatted RuntimeErr.
func Errf(format string, args ...any) {
	panic(RuntimeErr{fmt.Errorf(format, args...)})
}

// Errs panics with a RuntimeErr wrapping a fixed message (used by
// compiled steps whose message was pre-rendered at compile time).
func Errs(msg string) {
	panic(RuntimeErr{errors.New(msg)})
}

// StepBudget bounds a single activation's block transfers. Both engines
// enforce it (the interpreter counts blocks, the compiled tier counts
// branch steps), so a livelocked chunk fails with the same error on
// either.
const StepBudget = 100_000_000

// Frame is one compiled activation: a dense register file indexed by the
// compiler's slot assignment (parameters occupy the first slots).
type Frame struct {
	// Regs is the register file; slot indices are assigned at compile
	// time (compile.Fn.SlotOf).
	Regs []Val
	// Ret receives the activation's result when a return step runs.
	Ret Val
	// W is the prt worker the activation runs on; seams receive it so
	// mode checks, journaling, and metering attribute correctly.
	W *prt.Worker
	// Env is the seam interface the compiled steps call into.
	Env Env
	// Steps counts block transfers against StepBudget.
	Steps int

	// pool is the worker pool the frame came from (Pool.Frame sets it; a
	// frame built by hand has none and so cannot make a direct call);
	// args backs the argument vectors of the frame's Env.Call steps.
	pool *Pool
	args []Val
}

// Step is one fused instruction: it mutates the frame and returns the
// next program counter, or a negative value to finish the activation.
type Step func(fr *Frame) int

// Run drives a compiled activation to completion and returns its result.
// Execution errors surface as RuntimeErr panics, exactly like the
// interpreter's.
func Run(code []Step, fr *Frame) Val {
	for pc := 0; pc >= 0 && pc < len(code); {
		pc = code[pc](fr)
	}
	return fr.Ret
}

// Args returns the frame's argument buffer resized to n values, for a
// call step that goes through Env.Call. The vector is overwritten by the
// frame's next call step and recycled with the frame, so an Env.Call
// implementation must copy whatever it keeps past its return.
func (fr *Frame) Args(n int) []Val {
	if cap(fr.args) < n {
		fr.args = make([]Val, n)
	}
	return fr.args[:n]
}

// Callee opens the activation frame of a compiled-to-compiled call: a
// zeroed nslots-register frame from the caller's worker pool, running on
// the caller's worker against the caller's Env. Run it with RunPooled.
func (fr *Frame) Callee(nslots int) *Frame {
	return fr.pool.Frame(fr.W, fr.Env, nslots)
}

// RunPooled runs an activation on a pooled frame and hands the frame back
// to its pool on return. A panic skips the hand-back: a frame whose
// activation was abandoned is dropped, never reused.
func RunPooled(code []Step, fr *Frame) Val {
	v := Run(code, fr)
	fr.pool.put(fr)
	return v
}

// Pool recycles the activation frames and byte scratch of one worker. It
// lives in the worker's embedder slot (prt.Worker.Exec) and follows that
// slot's rules:
//
//   - it belongs to one worker and is touched only on that worker's
//     goroutine, so it needs no locking and is never shared;
//   - a worker replaced by a supervision restart starts with an empty
//     slot, so the replacement never inherits its predecessor's pool;
//   - a frame goes back only when its activation returns normally; a
//     panic drops every frame it unwinds through.
//
// Activations on a worker nest strictly (a nested spawn served inside a
// wait completes before the wait returns), so the free list is a stack.
type Pool struct {
	free    []*Frame
	scratch []byte
}

// Pool bounds: at most maxFreeFrames frames wait for reuse (deeper
// recursion allocates the rest), and scratch requests up to maxScratch
// bytes share one buffer (a larger request gets a fresh one).
const (
	maxFreeFrames = 128
	maxScratch    = 4096
)

// PoolOf returns w's pool, creating it on the worker's first compiled
// activation. A nil worker gets a fresh pool of its own.
func PoolOf(w *prt.Worker) *Pool {
	if w == nil {
		return &Pool{}
	}
	p, _ := w.Exec.(*Pool)
	if p == nil {
		p = &Pool{}
		w.Exec = p
	}
	return p
}

// Frame returns an activation frame with a zeroed nslots-register file
// (a register read before its first write sees the zero value, as the
// interpreter's fresh value map gives).
func (p *Pool) Frame(w *prt.Worker, env Env, nslots int) *Frame {
	var fr *Frame
	if k := len(p.free); k > 0 {
		fr = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	} else {
		fr = &Frame{pool: p}
	}
	if cap(fr.Regs) < nslots {
		fr.Regs = make([]Val, nslots)
	} else {
		fr.Regs = fr.Regs[:nslots]
		clear(fr.Regs)
	}
	fr.Ret, fr.W, fr.Env, fr.Steps = Val{}, w, env, 0
	return fr
}

func (p *Pool) put(fr *Frame) {
	fr.W, fr.Env = nil, nil
	if len(p.free) < maxFreeFrames {
		p.free = append(p.free, fr)
	}
}

// Scratch returns an n-byte buffer with unspecified contents for a copy
// that completes before the worker runs anything else (a builtin's
// load-then-store). Requests up to maxScratch bytes share the pool's one
// buffer; larger ones get a fresh buffer.
func (p *Pool) Scratch(n int) []byte {
	if n < 0 || n > maxScratch {
		return make([]byte, n)
	}
	if cap(p.scratch) < n {
		p.scratch = make([]byte, n, max(n, 256))
	}
	return p.scratch[:n]
}

// Env is the seam interface compiled code executes against. The
// interpreter implements it with the very helpers its own instruction
// loop uses (sanitizer → snapshot → effect transaction → journal →
// observer, in that order), so a compiled chunk crosses every defense
// layer the interpreted chunk crosses. The differential oracle
// implements it a second time as a trace checker (internal/interp's
// shadow environment).
//
// GlobalAddr and FuncValue are resolved at compile time (a unit is
// compiled per interpreter instance, so global addresses and
// function-pointer indices bake into the closures as constants); the
// remaining methods run per instruction.
type Env interface {
	// GlobalAddr returns the encoded address of a global.
	GlobalAddr(g *ir.Global) Val
	// FuncValue returns the function-pointer value of a function.
	FuncValue(fn *ir.Function) Val
	// Alloca services a stack allocation.
	Alloca(w *prt.Worker, t *ir.Alloca) Val
	// Malloc services a heap allocation of count elements.
	Malloc(w *prt.Worker, t *ir.Malloc, count Val) Val
	// Load performs the mode-checked load of t's type at addr.
	Load(w *prt.Worker, t *ir.Load, addr uint64) Val
	// Store performs the mode-checked store of v at addr.
	Store(w *prt.Worker, t *ir.Store, addr uint64, v Val)
	// FieldAddr computes a field address, following the split-structure
	// indirection for colored fields.
	FieldAddr(w *prt.Worker, t *ir.FieldAddr, base Val) Val
	// ElemStride returns the in-memory stride of an element type
	// (split-structure layouts override the nominal size). Called at
	// compile time.
	ElemStride(elem ir.Type) int64
	// ChunkHome reports, at compile time, the chunk ID of a function
	// that is a chunk body and the index of the worker its color runs
	// on; ok is false for any other function.
	ChunkHome(fn *ir.Function) (chunk, worker int, ok bool)
	// Enter accounts one compiled-to-compiled activation before the
	// callee's body runs. fused is the callee's chunk ID when the callee
	// is a chunk body of another color than w's (the crossing
	// optimizer's fused form), and -1 otherwise.
	Enter(w *prt.Worker, fused int)
	// Call dispatches a call instruction that is not a compiled-to-
	// compiled call, with its evaluated callee value (meaningful for
	// indirect calls) and arguments: runtime intrinsics, builtins,
	// indirect calls through interface versions, and direct calls to a
	// function the unit holds no body for. args is the calling frame's
	// buffer (Frame.Args): copy whatever outlives the call.
	Call(w *prt.Worker, t *ir.Call, callee Val, args []Val) Val
}

// SeamlessLoader is an optional Env extension used ONLY by the negative
// differential-oracle test: a load compiled with
// compile.Options.SkipLoadSeam calls it to read backing memory directly,
// bypassing the snapshot/transaction/journal seams, proving the oracle
// catches a compiled chunk that skips a seam. Production compiles never
// emit calls to it.
type SeamlessLoader interface {
	// SeamlessLoad reads t's type at addr straight from backing memory.
	SeamlessLoad(w *prt.Worker, t *ir.Load, addr uint64) Val
}

// BinOp applies a binary operator with the engines' shared semantics:
// float arithmetic when either side is a float, 64-bit integer
// arithmetic otherwise, shifts masked to 6 bits, and division/remainder
// by zero raising a RuntimeErr. The error strings keep the historical
// "interp:" prefix — the differential oracle compares them textually
// across engines.
func BinOp(op ir.BinOpKind, x, y Val) Val {
	if x.Fl || y.Fl {
		a, b := ToF(x), ToF(y)
		switch op {
		case ir.OpAdd:
			return FV(a + b)
		case ir.OpSub:
			return FV(a - b)
		case ir.OpMul:
			return FV(a * b)
		case ir.OpDiv:
			return FV(a / b)
		}
		Errf("interp: float %s unsupported", op)
	}
	a, b := x.I, y.I
	switch op {
	case ir.OpAdd:
		return IV(a + b)
	case ir.OpSub:
		return IV(a - b)
	case ir.OpMul:
		return IV(a * b)
	case ir.OpDiv:
		if b == 0 {
			Errf("interp: integer division by zero")
		}
		return IV(a / b)
	case ir.OpRem:
		if b == 0 {
			Errf("interp: integer remainder by zero")
		}
		return IV(a % b)
	case ir.OpAnd:
		return IV(a & b)
	case ir.OpOr:
		return IV(a | b)
	case ir.OpXor:
		return IV(a ^ b)
	case ir.OpShl:
		return IV(a << uint64(b&63))
	case ir.OpShr:
		return IV(a >> uint64(b&63))
	}
	Errf("interp: unknown binop %v", op)
	return Val{}
}

// Cmp applies a comparison with the engines' shared semantics, returning
// integer 1 or 0.
func Cmp(pred ir.CmpPred, x, y Val) Val {
	var r bool
	if x.Fl || y.Fl {
		a, b := ToF(x), ToF(y)
		switch pred {
		case ir.CmpEq:
			r = a == b
		case ir.CmpNe:
			r = a != b
		case ir.CmpLt:
			r = a < b
		case ir.CmpLe:
			r = a <= b
		case ir.CmpGt:
			r = a > b
		case ir.CmpGe:
			r = a >= b
		}
	} else {
		a, b := x.I, y.I
		switch pred {
		case ir.CmpEq:
			r = a == b
		case ir.CmpNe:
			r = a != b
		case ir.CmpLt:
			r = a < b
		case ir.CmpLe:
			r = a <= b
		case ir.CmpGt:
			r = a > b
		case ir.CmpGe:
			r = a >= b
		}
	}
	if r {
		return IV(1)
	}
	return IV(0)
}

// Cast converts a value to a target type with the engines' shared
// semantics: integer narrowing sign-extends back to 64 bits, float↔int
// converts, pointer and function casts preserve the word.
func Cast(v Val, to ir.Type) Val {
	switch tt := to.(type) {
	case ir.IntType:
		x := v.I
		if v.Fl {
			x = int64(v.F)
		}
		switch tt.Bits {
		case 1:
			return IV(x & 1)
		case 8:
			return IV(int64(int8(x)))
		case 32:
			return IV(int64(int32(x)))
		default:
			return IV(x)
		}
	case ir.FloatType:
		if v.Fl {
			return v
		}
		return FV(float64(v.I))
	default:
		// Pointer and function casts preserve the word.
		return IV(v.I)
	}
}
