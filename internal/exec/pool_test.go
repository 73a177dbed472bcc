package exec

import (
	"testing"

	"privagic/internal/prt"
)

// dirty is a step that leaves every piece of frame state set, as a
// finished activation does.
func dirty(fr *Frame) int {
	for i := range fr.Regs {
		fr.Regs[i] = IV(int64(i) + 7)
	}
	fr.Args(3)[0] = IV(9)
	fr.Steps = 42
	fr.Ret = IV(99)
	return -1
}

// TestPoolReusesFramesClean checks that a frame handed back after a
// normal return comes out again with zeroed registers, a zero result and
// a fresh step budget, bound to its new worker and Env.
func TestPoolReusesFramesClean(t *testing.T) {
	p := &Pool{}
	fr := p.Frame(nil, nil, 4)
	if got := RunPooled([]Step{dirty}, fr); got.I != 99 {
		t.Fatalf("RunPooled returned %v, want the activation's result", got)
	}
	if len(p.free) != 1 {
		t.Fatalf("%d frames free after a normal return, want 1", len(p.free))
	}
	w := &prt.Worker{Index: 3}
	again := p.Frame(w, nil, 3)
	if again != fr {
		t.Fatal("the pool allocated a new frame while one was free")
	}
	for i, v := range again.Regs {
		if v != (Val{}) {
			t.Errorf("reused register %d = %v, want zero", i, v)
		}
	}
	if again.Steps != 0 || again.Ret != (Val{}) || again.W != w || len(again.Regs) != 3 {
		t.Errorf("reused frame: Steps=%d Ret=%v W=%p len(Regs)=%d; want 0, zero, %p, 3",
			again.Steps, again.Ret, again.W, len(again.Regs), w)
	}
}

// TestPoolDropsPanickedFrames checks that an activation that panics
// never hands its frame back: the next request gets a new frame.
func TestPoolDropsPanickedFrames(t *testing.T) {
	p := &Pool{}
	fr := p.Frame(nil, nil, 2)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("the activation did not panic")
			}
		}()
		RunPooled([]Step{func(fr *Frame) int { Errs("boom"); return -1 }}, fr)
	}()
	if len(p.free) != 0 {
		t.Fatalf("%d frames free after a panic, want 0", len(p.free))
	}
	if p.Frame(nil, nil, 2) == fr {
		t.Error("the pool handed out a frame abandoned by a panic")
	}
}

// TestPoolBounds checks that the free list and the scratch buffer stay
// bounded: frames past maxFreeFrames are dropped, and a scratch request
// larger than maxScratch gets a buffer the pool does not keep.
func TestPoolBounds(t *testing.T) {
	p := &Pool{}
	frames := make([]*Frame, maxFreeFrames+10)
	for i := range frames {
		frames[i] = p.Frame(nil, nil, 1)
	}
	for _, fr := range frames {
		RunPooled(nil, fr)
	}
	if len(p.free) != maxFreeFrames {
		t.Errorf("%d frames free, want the bound %d", len(p.free), maxFreeFrames)
	}
	a := p.Scratch(64)
	b := p.Scratch(32)
	if &a[0] != &b[0] {
		t.Error("small scratch requests did not share the pool's buffer")
	}
	big := p.Scratch(maxScratch + 1)
	if len(big) != maxScratch+1 || cap(p.scratch) > maxScratch {
		t.Errorf("oversized scratch: len %d, pool keeps cap %d; want %d and at most %d",
			len(big), cap(p.scratch), maxScratch+1, maxScratch)
	}
}

// TestPoolOfIsPerWorker checks that each worker gets its own pool, that
// the pool stays with its worker, and that a nil worker shares nothing.
func TestPoolOfIsPerWorker(t *testing.T) {
	w1, w2 := &prt.Worker{Index: 1}, &prt.Worker{Index: 2}
	p1 := PoolOf(w1)
	if PoolOf(w1) != p1 {
		t.Error("a worker's pool changed between calls")
	}
	if PoolOf(w2) == p1 {
		t.Error("two workers share one pool")
	}
	if PoolOf(nil) == PoolOf(nil) {
		t.Error("nil workers share one pool")
	}
}
