package main

import (
	"testing"

	"privagic"
	"privagic/internal/sources"
)

// TestModelMatchesPlainPrograms checks the oracle against the unprotected
// twins of the benchmark's programs, run on the reference interpreter:
// three calls on a fresh instance (the first starts with no keys, later
// ones see the keys earlier calls set), for the programs' own seeds and
// substituted ones.
func TestModelMatchesPlainPrograms(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"mc-core-plain", sources.MemcachedCorePlain},
		{"hashmap-plain", sources.HashmapPlain},
	} {
		for _, seed := range []int64{-1, 0, 1, 7, 123456789, 1 << 40} {
			src, start, err := seedSource(tc.src, seed)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			prog, err := privagic.Compile(tc.name+".c", src, privagic.Options{Entries: []string{entry}})
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			inst := prog.Instantiate(nil)
			m := model{seed: start}
			for call := 0; call < 3; call++ {
				got, err := inst.Call(entry)
				if want := m.call(); err != nil || got != want {
					t.Errorf("%s seed %d call %d: got %d (%v), model %d", tc.name, seed, call, got, err, want)
				}
			}
			inst.Close()
		}
	}
}

// TestSeedDefaultIsVerbatim checks that a negative seed leaves every
// workload's program text untouched.
func TestSeedDefaultIsVerbatim(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		src, _, err := w.seeded(-1)
		if err != nil || src != w.src {
			t.Errorf("%s: default seed changed the program (err %v)", w.name, err)
		}
	}
}
