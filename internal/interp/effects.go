package interp

import (
	"sync/atomic"

	"privagic/internal/prt"
	"privagic/internal/sgx"
)

// The effect transaction makes chunk re-execution idempotent: while a
// spawned chunk runs under recovery, every visible effect — mode-checked
// stores and console output — is buffered here instead of being applied,
// and only the chunk's successful completion commits the buffer. A
// crashed attempt discards it, so the replay starts from exactly the
// state the original attempt saw: no double-applied writes, no repeated
// output. Loads read through the buffer (a chunk always sees its own
// writes), which together with the runtime's cont replay caches makes a
// chunk a deterministic function of its spawn arguments and barrier
// inputs — the §5 execution model, now stated operationally.
//
// The transaction lives in the worker's Tx slot and is touched only on
// the worker's own goroutine; commit applies the redo log in original
// store order, so overlapping writes resolve exactly as the chunk issued
// them.
type effectTx struct {
	chunkID int
	// overlay holds the buffered bytes word-granular (8-byte entries
	// keyed by addr>>3, with a per-byte valid mask), so a typical scalar
	// load or store costs one map access instead of one per byte; loads
	// patch it over the backing memory.
	overlay map[uint64]ovWord
	// redo is the ordered write log replayed into backing memory at
	// commit; arena backs the logged bytes so buffering a store does not
	// allocate.
	redo  []writeRec
	arena []byte
	// out buffers printf/puts text until commit.
	out []byte
	// stores counts buffered writes (the crash-point hook's cursor).
	stores int
}

// ovWord is one aligned 8-byte overlay entry; mask bit i marks bytes[i]
// as buffered.
type ovWord struct {
	bytes [8]byte
	mask  uint8
}

type writeRec struct {
	addr uint64
	off  int // into arena
	n    int
}

// txOf returns the worker's active effect transaction, or nil.
func txOf(w *prt.Worker) *effectTx {
	tx, _ := w.Tx.(*effectTx)
	return tx
}

// beginTx opens an effect transaction for a spawned chunk when recovery
// is enabled. Returns the previous Tx slot value so nested spawns on the
// same worker restore the outer chunk's transaction.
func (ip *Interp) beginTx(w *prt.Worker, chunkID int) (tx *effectTx, prev any) {
	prev = w.Tx
	if !ip.RT.Recovery.Enabled() {
		w.Tx = nil
		return nil, prev
	}
	tx = &effectTx{chunkID: chunkID}
	w.Tx = tx
	return tx, prev
}

// commitTx applies the buffered effects: redo log in store order, then
// the buffered output.
func (ip *Interp) commitTx(tx *effectTx) {
	if tx == nil {
		return
	}
	for _, rec := range tx.redo {
		rid, off := sgx.DecodePtr(rec.addr)
		if r := ip.RT.Space.Region(rid); r != nil {
			// Commits into unsafe memory go through the observer guard:
			// a mutator holding a pending corruption of these words must
			// resolve it before the committed bytes land, or a later
			// restore would clobber them.
			data := tx.arena[rec.off : rec.off+rec.n]
			if ip.bobs == nil {
				r.Store(off, data)
			} else {
				ip.guardedBackingStore(rec.addr, rec.n, func() { r.Store(off, data) })
			}
		}
	}
	if len(tx.out) > 0 {
		ip.print(string(tx.out))
	}
	ip.effCommits.Add(1)
}

// discardTx drops a crashed attempt's buffered effects (the replay must
// not see them).
func (ip *Interp) discardTx(tx *effectTx) {
	if tx == nil {
		return
	}
	ip.effDiscards.Add(1)
}

// EffectStats reports how many chunk effect transactions committed and
// how many were discarded by a crashed attempt.
func (ip *Interp) EffectStats() (commits, discards int64) {
	return ip.effCommits.Load(), ip.effDiscards.Load()
}

// SetCrashPoint installs the mid-chunk crash hook: it is consulted on
// every buffered store of a spawned chunk (workerIdx, chunk, 1-based
// store number) and a non-nil return value is panicked — the fault
// injector returns values marked with an InjectedFault method so the
// panic re-surfaces as an EnclaveAbort instead of being absorbed as a
// program error. Install before Call; nil removes the hook.
func (ip *Interp) SetCrashPoint(hook func(workerIdx, chunkID, storeN int) any) {
	ip.crashPoint = hook
}

// EnableRecovery turns on bounded restart/replay in the runtime and
// effect buffering in the interpreter (the two halves are only correct
// together: replay without buffering double-applies writes, buffering
// without replay just delays them). Call before the first Call.
func (ip *Interp) EnableRecovery(p prt.RecoveryPolicy) {
	ip.RT.Recovery = p
}

// loadBytes is the central mode-checked load every interpreter read goes
// through: sanitization first (when armed), then the snapshot/observer
// layer for unsafe memory or the plain checked load, then the active
// transaction's overlay patched over it so a chunk observes its own
// buffered writes.
func (ip *Interp) loadBytes(w *prt.Worker, addr uint64, buf []byte) {
	if ip.boundary.SanitizePointers {
		ip.sanitize(w, addr, len(buf), false)
	}
	if ip.boundary.any() {
		if rid, _ := sgx.DecodePtr(addr); rid != sgx.Unsafe {
			ip.bStats.trustedLoads.Add(1)
		} else if !ip.boundary.Snapshots || snapOf(w) == nil {
			ip.bStats.unsafeLoads.Add(1)
		}
	}
	if !ip.snapLoad(w, addr, buf) {
		if err := ip.RT.Space.CheckedLoad(w.Mode, addr, buf); err != nil {
			panic(runtimeErr{Err: err})
		}
	}
	if tx := txOf(w); tx != nil {
		if len(tx.overlay) > 0 {
			tx.patch(addr, buf)
		}
		// Journal the post-overlay bytes: a replayed chunk re-reads them
		// from the journal instead of live memory, which committed nested
		// effects may have moved past the crashed attempt's view.
		w.JournalLoad(buf)
	}
}

// patch applies the overlay's buffered bytes over a load's result, one
// map access per touched 8-byte word.
func (tx *effectTx) patch(addr uint64, buf []byte) {
	for i := 0; i < len(buf); {
		wk := (addr + uint64(i)) >> 3
		w, ok := tx.overlay[wk]
		for ; i < len(buf) && (addr+uint64(i))>>3 == wk; i++ {
			if ok {
				bi := (addr + uint64(i)) & 7
				if w.mask&(1<<bi) != 0 {
					buf[i] = w.bytes[bi]
				}
			}
		}
	}
}

// storeBytes is the central mode-checked store: applied directly with no
// transaction, buffered (after the same access check, so an illegal
// store still faults at the faulting instruction) when one is active.
func (ip *Interp) storeBytes(w *prt.Worker, addr uint64, data []byte) {
	if ip.boundary.SanitizePointers {
		ip.sanitize(w, addr, len(data), true)
	}
	tx := txOf(w)
	if tx == nil {
		if ip.bobs == nil {
			// Fast path: no observer installed, store directly (the
			// closure below would otherwise escape on every store).
			if err := ip.RT.Space.CheckedStore(w.Mode, addr, data); err != nil {
				panic(runtimeErr{Err: err})
			}
		} else {
			// The observer's callback stores a copy: capturing data
			// itself would move every caller's store buffer to the heap.
			cp := append([]byte(nil), data...)
			ip.guardedBackingStore(addr, len(cp), func() {
				if err := ip.RT.Space.CheckedStore(w.Mode, addr, cp); err != nil {
					panic(runtimeErr{Err: err})
				}
			})
		}
		// Keep the snapshot coherent: a copied-in word the chunk just
		// overwrote must serve the new bytes.
		if sn := snapOf(w); sn != nil {
			if rid, off := sgx.DecodePtr(addr); rid == sgx.Unsafe {
				snapStoreSync(sn, off, data)
			}
		}
		return
	}
	rid, _ := sgx.DecodePtr(addr)
	if !sgx.CanAccess(w.Mode, rid) {
		panic(runtimeErr{Err: &sgx.AccessError{Mode: w.Mode, Target: rid, Addr: addr}})
	}
	if ip.RT.Space.Region(rid) == nil {
		errf("interp: store to unmapped region %d", rid)
	}
	tx.stores++
	if hook := ip.crashPoint; hook != nil {
		if f := hook(w.Index, tx.chunkID, tx.stores); f != nil {
			panic(f)
		}
	}
	if tx.overlay == nil {
		tx.overlay = make(map[uint64]ovWord, 8)
	}
	off := len(tx.arena)
	tx.arena = append(tx.arena, data...)
	tx.redo = append(tx.redo, writeRec{addr: addr, off: off, n: len(data)})
	for i := 0; i < len(data); {
		wk := (addr + uint64(i)) >> 3
		w := tx.overlay[wk]
		for ; i < len(data) && (addr+uint64(i))>>3 == wk; i++ {
			bi := (addr + uint64(i)) & 7
			w.bytes[bi] = data[i]
			w.mask |= 1 << bi
		}
		tx.overlay[wk] = w
	}
}

// printTx routes program output through the active transaction.
func (ip *Interp) printTx(w *prt.Worker, s string) {
	if tx := txOf(w); tx != nil {
		tx.out = append(tx.out, s...)
		return
	}
	ip.print(s)
}

// effect counters (atomic: committed on worker goroutines).
type effCounters struct {
	effCommits  atomic.Int64
	effDiscards atomic.Int64
}
