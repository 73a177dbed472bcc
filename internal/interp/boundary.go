package interp

import (
	"sync/atomic"

	"privagic/internal/prt"
	"privagic/internal/sgx"
)

// Runtime boundary defense (the hardened-mode Iago layer).
//
// The static checker guarantees no *instruction* crosses a color boundary
// illegally, but the §4 attacker owns unsafe memory at runtime: a U word
// can change between two reads of the same barrier interval (double
// fetch), a U-resident pointer slot can be smashed to point anywhere, and
// a queued message can be rewritten in place. The three defenses here
// close those windows:
//
//  1. Copy-in snapshots: the first time a colored chunk reads a U word in
//     a barrier interval, the word is copied into enclave-private memory
//     (the snapshot, parked in the worker's Snap slot); every later read
//     of that word in the interval is served from the copy. A mutation of
//     the backing word between the two reads is simply never observed —
//     TOCTOU is defeated by construction, not detected.
//  2. Pointer sanitization: before any dereference, the address is
//     validated against the simulated memory map (region mapped, offset
//     inside the region's allocation extent). A smashed pointer surfaces
//     as a typed *prt.IagoViolation instead of garbage or a crash.
//  3. Payload integrity tags live in internal/prt (Runtime.PayloadTags):
//     spawn arguments and cont payloads travel through messages, so their
//     copy-in is the message itself and their freshness is the tag.
//
// The snapshot map also does double duty as the freshness tracker for the
// mutator adversary (internal/faults): a BoundaryObserver sees every
// backing U load with its (enclave, fresh) classification and every
// backing U store, which is exactly the information a U-memory attacker
// simulation needs to corrupt precisely the windows the defense claims to
// close — and nothing else.

// BoundaryConfig selects which boundary defenses are armed.
type BoundaryConfig struct {
	// Snapshots serves repeated U reads of a barrier interval from an
	// enclave-private copy taken at first read.
	Snapshots bool
	// SanitizePointers validates every load/store address against the
	// memory map before dereference.
	SanitizePointers bool
	// PayloadTags arms the prt payload integrity tags (set through
	// EnableBoundaryDefense so one call configures the whole layer).
	PayloadTags bool
}

func (c BoundaryConfig) any() bool { return c.Snapshots || c.SanitizePointers || c.PayloadTags }

// FullBoundary is the hardened-mode default: everything armed.
func FullBoundary() BoundaryConfig {
	return BoundaryConfig{Snapshots: true, SanitizePointers: true, PayloadTags: true}
}

// EnableBoundaryDefense arms the runtime Iago defenses. Call before the
// first Call (the payload-tag half configures the runtime, and threads
// cache nothing, but arming mid-protocol would tag only some messages of
// a stream).
func (ip *Interp) EnableBoundaryDefense(cfg BoundaryConfig) {
	ip.boundary = cfg
	ip.RT.PayloadTags = cfg.PayloadTags
}

// BoundaryObserver sees every backing access to unsafe memory — the seam
// the mutator adversary attaches to. GuardedLoad wraps the actual backing
// read of one aligned 8-byte word: enclave says whether an enclave-mode
// chunk is reading, fresh whether this is the word's first read of the
// current barrier interval. GuardedStore wraps a backing write (direct
// stores and effect-transaction commits), so an attacker holding a
// pending corruption of those words can resolve it before legitimate data
// lands. Both run the access inside the callback so the observer can make
// its own writes atomic with it.
type BoundaryObserver interface {
	GuardedLoad(addr uint64, n int, enclave, fresh bool, load func())
	GuardedStore(addr uint64, n int, store func())
}

// SetBoundaryObserver installs (or removes, with nil) the U-memory access
// observer. Install before Call.
func (ip *Interp) SetBoundaryObserver(o BoundaryObserver) {
	ip.bobs = o
}

// boundaryCounters classifies boundary crossings (atomic: chunk bodies run
// on worker goroutines). Counted only while the defense is armed.
type boundaryCounters struct {
	snapCopyIns  atomic.Int64 // U words copied into a snapshot (first read)
	snapServed   atomic.Int64 // U word reads served from the snapshot
	trustedLoads atomic.Int64 // loads from enclave (S) memory
	unsafeLoads  atomic.Int64 // U loads not covered by a snapshot
	sanChecks    atomic.Int64 // addresses validated before dereference
	violations   atomic.Int64 // typed Iago violations raised
}

// BoundaryStats is a snapshot of the interpreter-side defense counters
// (payload-tag rejections are counted by the runtime: SupervisionStats).
type BoundaryStats struct {
	SnapshotCopyIns int64 // U words copied in at first read
	SnapshotServed  int64 // repeated reads served from the copy
	TrustedLoads    int64 // loads from enclave memory (no defense needed)
	UnsafeLoads     int64 // U loads outside snapshot coverage
	SanitizeChecks  int64 // pointer validations performed
	Violations      int64 // typed violations raised
}

// BoundaryStats snapshots the defense counters.
func (ip *Interp) BoundaryStats() BoundaryStats {
	return BoundaryStats{
		SnapshotCopyIns: ip.bStats.snapCopyIns.Load(),
		SnapshotServed:  ip.bStats.snapServed.Load(),
		TrustedLoads:    ip.bStats.trustedLoads.Load(),
		UnsafeLoads:     ip.bStats.unsafeLoads.Load(),
		SanitizeChecks:  ip.bStats.sanChecks.Load(),
		Violations:      ip.bStats.violations.Load(),
	}
}

// boundarySnap is the per-barrier-interval copy-in cache of one worker:
// whole aligned 8-byte U words, keyed by word offset. It models the
// enclave-private staging buffer a hardened compiler would emit copy-in
// code for. serve is false in tracking-only mode (snapshots disarmed but
// an observer needs the freshness classification): words are recorded but
// reads still hit backing memory.
type boundarySnap struct {
	words map[uint64][8]byte
	serve bool
}

// snapOf returns the worker's active snapshot, or nil.
func snapOf(w *prt.Worker) *boundarySnap {
	sn, _ := w.Snap.(*boundarySnap)
	return sn
}

// beginSnap opens a snapshot for a spawned chunk when snapshots are armed
// or an observer needs freshness tracking. Returns the previous Snap slot
// value so nested spawns on the same worker restore the outer chunk's
// snapshot.
func (ip *Interp) beginSnap(w *prt.Worker) (prev any) {
	prev = w.Snap
	if ip.boundary.Snapshots || ip.bobs != nil {
		w.Snap = &boundarySnap{
			words: make(map[uint64][8]byte, 16),
			serve: ip.boundary.Snapshots,
		}
	} else {
		w.Snap = nil
	}
	return prev
}

// snapBarrier starts a new barrier interval on the worker: the snapshot
// is dropped, so the next read of each U word re-copies it. Called after
// every successful wait/join — the values a peer produced behind the
// barrier must be observable, and the TOCTOU window the snapshot closes
// is *within* an interval, not across barriers.
func (ip *Interp) snapBarrier(w *prt.Worker) {
	if sn := snapOf(w); sn != nil {
		clear(sn.words)
	}
}

// snapLoad serves a load of unsafe memory through the snapshot/observer
// layer, one aligned 8-byte word at a time. Reports false when the layer
// is not engaged for this address (the caller then performs the plain
// mode-checked load). Enclave-region loads never come here: enclave
// memory is trusted by the SGX model itself.
func (ip *Interp) snapLoad(w *prt.Worker, addr uint64, buf []byte) bool {
	obs := ip.bobs
	if !ip.boundary.Snapshots && obs == nil {
		return false
	}
	rid, off := sgx.DecodePtr(addr)
	if rid != sgx.Unsafe {
		return false
	}
	r := ip.RT.Space.Region(sgx.Unsafe)
	sn := snapOf(w)
	enclave := w.Mode != sgx.Unsafe
	armed := ip.boundary.Snapshots
	for i := 0; i < len(buf); {
		wordOff := (off + uint64(i)) &^ 7
		var wb [8]byte
		cached := false
		if sn != nil {
			wb, cached = sn.words[wordOff]
		}
		if cached && sn.serve {
			ip.bStats.snapServed.Add(1)
		} else {
			if obs != nil {
				wb = guardedLoadWord(obs, r, wordOff, enclave, !cached)
			} else {
				r.Load(wordOff, wb[:])
			}
			if sn != nil && !cached {
				sn.words[wordOff] = wb
				if armed {
					ip.bStats.snapCopyIns.Add(1)
				}
			}
		}
		for ; i < len(buf) && (off+uint64(i))&^7 == wordOff; i++ {
			buf[i] = wb[(off+uint64(i))&7]
		}
	}
	return true
}

// guardedLoadWord reads one aligned U word through the observer. The
// observer's callback captures the word buffer, so keeping that capture
// in its own function moves a word to the heap on the observer path
// alone, not on every snapshot load.
func guardedLoadWord(obs BoundaryObserver, r *sgx.Region, wordOff uint64, enclave, fresh bool) [8]byte {
	var wb [8]byte
	obs.GuardedLoad(sgx.EncodePtr(sgx.Unsafe, wordOff), 8, enclave, fresh, func() {
		r.Load(wordOff, wb[:])
	})
	return wb
}

// snapStoreSync keeps an active snapshot coherent with the chunk's own
// direct stores: a word the chunk already copied in is updated so later
// snapshot-served reads see the chunk's write (reads patch the effect
// overlay too, but direct stores bypass it when recovery is off).
func snapStoreSync(sn *boundarySnap, off uint64, data []byte) {
	if sn == nil || len(sn.words) == 0 {
		return
	}
	for i := 0; i < len(data); {
		wordOff := (off + uint64(i)) &^ 7
		wb, cached := sn.words[wordOff]
		for ; i < len(data) && (off+uint64(i))&^7 == wordOff; i++ {
			if cached {
				wb[(off+uint64(i))&7] = data[i]
			}
		}
		if cached {
			sn.words[wordOff] = wb
		}
	}
}

// guardedBackingStore routes a backing store to unsafe memory through the
// observer (when one is installed) so a pending corruption of those words
// is resolved before legitimate data lands.
func (ip *Interp) guardedBackingStore(addr uint64, n int, store func()) {
	if obs := ip.bobs; obs != nil {
		if rid, _ := sgx.DecodePtr(addr); rid == sgx.Unsafe {
			obs.GuardedStore(addr, n, store)
			return
		}
	}
	store()
}

// sanitize validates an address against the simulated memory map before a
// dereference: the region must be mapped and the offset inside its
// allocation extent (full range for stores; for loads only the start is
// checked, because trusted bulk readers — readString's chunked scan — may
// legitimately overshoot the final allocation and rely on the machine's
// zero fill). A failure is the typed Iago violation of the hardened mode.
func (ip *Interp) sanitize(w *prt.Worker, addr uint64, n int, store bool) {
	ip.bStats.sanChecks.Add(1)
	rid, off := sgx.DecodePtr(addr)
	r := ip.RT.Space.Region(rid)
	var extent uint64
	ok := r != nil
	if ok {
		extent = r.Extent()
		if store {
			ok = off < extent && off+uint64(n) <= extent
		} else {
			ok = off < extent
		}
	}
	if !ok {
		ip.bStats.violations.Add(1)
		panic(runtimeErr{Err: &prt.IagoViolation{
			Kind: "pointer", Worker: w.Index, Addr: addr,
			Region: int(rid), Extent: extent, Len: n,
		}})
	}
}

// The payload-integrity hooks (PaySum, MutatePayload) moved to exec.Val
// with the value representation itself, so messages carry identical
// integrity tags no matter which engine produced the payload.
