package cache

import (
	"testing"

	"pipecache/internal/stats"
)

// fuzzConfigs decodes a ladder of at most eight configurations, two bytes
// each: the first picks size (1-8 KW), block (1-8 words) and write
// policy, the second associativity (1-8 ways) and replacement policy.
// Every decoded configuration is valid.
func fuzzConfigs(b []byte) []Config {
	var cfgs []Config
	for i := 0; i+1 < len(b) && len(cfgs) < 8; i += 2 {
		cfgs = append(cfgs, Config{
			SizeKW:     1 << (b[i] & 3),
			BlockWords: 1 << (b[i] >> 2 & 3),
			WriteBack:  b[i]&0x10 != 0,
			Assoc:      1 << (b[i+1] & 3),
			Policy:     Policy(b[i+1] >> 2 % 3),
		})
	}
	return cfgs
}

// FuzzBankDifferential holds the fused bank — lane-packed groups and the
// LRU, FIFO and Tree-PLRU general kernels — to the per-configuration
// reference Cache over random ladders and random interleavings of reads,
// writes, grouped I-fetch ranges and flushes. The explicit ops come first
// (three bytes each: kind, then a 16-bit word address), followed by a
// seeded random stream long enough to reach steady replacement state.
// Every probe's miss mask and every configuration's final Stats must
// match.
func FuzzBankDifferential(f *testing.F) {
	// A packable direct-mapped LRU ladder.
	f.Add([]byte{0x10, 0x00, 0x11, 0x00, 0x13, 0x00}, []byte{0, 1, 0, 5, 1, 0, 7, 0, 0, 0, 1, 0}, uint64(1))
	// Set-associative FIFO and Tree-PLRU beside a write-through LRU lane.
	f.Add([]byte{0x15, 0x05, 0x02, 0x09, 0x07, 0x01}, []byte{6, 0, 4, 1, 0, 4, 15, 0, 0}, uint64(2))
	// Mixed block sizes and associativities under every policy.
	f.Add([]byte{0x14, 0x03, 0x19, 0x06, 0x0a, 0x0b, 0x1f, 0x02}, []byte{3, 0x10, 0x20}, uint64(3))

	f.Fuzz(func(t *testing.T, ladder, ops []byte, seed uint64) {
		cfgs := fuzzConfigs(ladder)
		if len(cfgs) == 0 {
			return
		}
		bank, err := NewBank(cfgs)
		if err != nil {
			t.Fatalf("NewBank(%v): %v", cfgs, err)
		}
		defer bank.Release()
		refs := make([]*Cache, len(cfgs))
		for i, cfg := range cfgs {
			if refs[i], err = New(cfg); err != nil {
				t.Fatalf("New(%v): %v", cfg, err)
			}
		}
		probe := bank.ProbeWords()
		step := 0
		// apply runs one op on both sides: kind 0-3 read, 4-5 write, 6
		// grouped fetch of the run starting at addr, 7 flush.
		apply := func(kind uint8, addr uint32) {
			step++
			switch kind {
			case 7:
				bank.Flush()
				for _, c := range refs {
					c.Flush()
				}
				return
			case 6:
				n := int(probe - addr&(probe-1))
				got := bank.AccessRange(addr, n)
				var want uint64
				for ci, c := range refs {
					for w := 0; w < n; w++ {
						if !c.Access(addr+uint32(w), false).Hit {
							want |= 1 << uint(ci)
						}
					}
				}
				if got != want {
					t.Fatalf("op %d range addr=%d n=%d over %v: bank mask %#x, reference %#x", step, addr, n, cfgs, got, want)
				}
				return
			}
			write := kind >= 4
			got := bank.Access(addr, write)
			var want uint64
			for ci, c := range refs {
				if !c.Access(addr, write).Hit {
					want |= 1 << uint(ci)
				}
			}
			if got != want {
				t.Fatalf("op %d addr=%d write=%v over %v: bank mask %#x, reference %#x", step, addr, write, cfgs, got, want)
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			apply(ops[i]&7, uint32(ops[i+1])|uint32(ops[i+2])<<8)
		}
		r := stats.NewRNG(seed)
		for i := 0; i < 3000; i++ {
			kind := uint8(r.Intn(7))
			if r.Intn(1000) == 0 {
				kind = 7
			}
			apply(kind, uint32(r.Intn(40_000)))
		}
		for ci := range cfgs {
			if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
				t.Fatalf("cfg %v: bank stats %+v, reference %+v", cfgs[ci], got, want)
			}
		}
	})
}
