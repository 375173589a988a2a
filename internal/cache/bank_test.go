package cache

import (
	"testing"

	"pipecache/internal/stats"
)

func mustBank(t *testing.T, cfgs []Config) *Bank {
	t.Helper()
	b, err := NewBank(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func refCaches(t *testing.T, cfgs []Config) []*Cache {
	t.Helper()
	refs := make([]*Cache, len(cfgs))
	for i, cfg := range cfgs {
		refs[i] = mustNew(t, cfg)
	}
	return refs
}

// TestBankDifferentialExhaustive drives the fused bank and a per-config
// Cache reference with the identical access stream over the full
// cross-product of the design space — size ladder × block sizes ×
// associativities × write policies — and demands bit-identical miss masks
// on every probe and bit-identical final Stats.
func TestBankDifferentialExhaustive(t *testing.T) {
	sizes := []int{1, 2, 4, 8, 16, 32}
	for _, block := range []int{4, 8, 16} {
		for _, assoc := range []int{1, 2, 4} {
			for _, wb := range []bool{true, false} {
				var cfgs []Config
				for _, s := range sizes {
					cfgs = append(cfgs, Config{SizeKW: s, BlockWords: block, Assoc: assoc, WriteBack: wb})
				}
				bank := mustBank(t, cfgs)
				refs := refCaches(t, cfgs)
				r := stats.NewRNG(uint64(block*100 + assoc*10))
				if wb {
					r = stats.NewRNG(uint64(block*100 + assoc*10 + 1))
				}
				for i := 0; i < 20000; i++ {
					addr := uint32(r.Intn(200_000))
					write := r.Bool(0.3)
					mask := bank.Access(addr, write)
					for ci, c := range refs {
						res := c.Access(addr, write)
						if gotMiss := mask&(1<<uint(ci)) != 0; gotMiss == res.Hit {
							t.Fatalf("block=%d assoc=%d wb=%v cfg=%v probe %d addr=%d write=%v: bank miss=%v, cache hit=%v",
								block, assoc, wb, cfgs[ci], i, addr, write, gotMiss, res.Hit)
						}
					}
				}
				for ci := range cfgs {
					if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
						t.Fatalf("block=%d assoc=%d wb=%v cfg=%v: bank stats %+v, cache stats %+v",
							block, assoc, wb, cfgs[ci], got, want)
					}
				}
			}
		}
	}
}

// TestBankMixedConfigs packs heterogeneous configurations — different
// block sizes, associativities and write policies — into one bank, which
// exercises the block-number recompute between configurations.
func TestBankMixedConfigs(t *testing.T) {
	var cfgs []Config
	for _, s := range []int{1, 4, 16} {
		for _, block := range []int{4, 8, 16} {
			for _, assoc := range []int{1, 2, 4} {
				for _, wb := range []bool{true, false} {
					cfgs = append(cfgs, Config{SizeKW: s, BlockWords: block, Assoc: assoc, WriteBack: wb})
				}
			}
		}
	}
	if len(cfgs) > MaxBankConfigs {
		t.Fatalf("test bank too wide: %d", len(cfgs))
	}
	bank := mustBank(t, cfgs)
	refs := refCaches(t, cfgs)
	r := stats.NewRNG(99)
	for i := 0; i < 30000; i++ {
		addr := uint32(r.Intn(150_000))
		write := r.Bool(0.25)
		mask := bank.Access(addr, write)
		for ci, c := range refs {
			res := c.Access(addr, write)
			if gotMiss := mask&(1<<uint(ci)) != 0; gotMiss == res.Hit {
				t.Fatalf("cfg=%v probe %d: bank miss=%v, cache hit=%v", cfgs[ci], i, gotMiss, res.Hit)
			}
		}
	}
	for ci := range cfgs {
		if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
			t.Fatalf("cfg=%v: bank stats %+v, cache stats %+v", cfgs[ci], got, want)
		}
	}
}

// TestPackedGroupChunking packs more same-shape lanes than one group's
// mask width and checks the multi-group split stays differential-exact.
func TestPackedGroupChunking(t *testing.T) {
	var cfgs []Config
	for i := 0; i < 20; i++ {
		cfgs = append(cfgs, Config{SizeKW: 1 << uint(i%6), BlockWords: 4, Assoc: 1, WriteBack: true})
	}
	bank := mustBank(t, cfgs)
	if bank.PackedGroups() != 2 || !bank.AllPacked() {
		t.Fatalf("groups=%d allPacked=%v, want 2 groups all packed", bank.PackedGroups(), bank.AllPacked())
	}
	refs := refCaches(t, cfgs)
	r := stats.NewRNG(11)
	for i := 0; i < 20000; i++ {
		addr := uint32(r.Intn(120_000))
		write := r.Bool(0.3)
		mask := bank.Access(addr, write)
		for ci, c := range refs {
			res := c.Access(addr, write)
			if gotMiss := mask&(1<<uint(ci)) != 0; gotMiss == res.Hit {
				t.Fatalf("cfg %d probe %d: bank miss=%v, cache hit=%v", ci, i, gotMiss, res.Hit)
			}
		}
	}
	for ci := range cfgs {
		if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
			t.Fatalf("cfg %d: bank stats %+v, cache stats %+v", ci, got, want)
		}
	}
}

// TestBankAccessRangeDifferential checks the grouped I-fetch probe: one
// AccessRange over a run of consecutive words must report the same misses
// and leave the same statistics as probing each word separately, because
// within one minimum-block run only the first word can miss.
func TestBankAccessRangeDifferential(t *testing.T) {
	var cfgs []Config
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		cfgs = append(cfgs, Config{SizeKW: s, BlockWords: 4, Assoc: 1, WriteBack: true})
	}
	// A second ladder with a larger block to confirm runs sized by the
	// bank minimum stay within every configuration's blocks.
	for _, s := range []int{2, 8, 32} {
		cfgs = append(cfgs, Config{SizeKW: s, BlockWords: 16, Assoc: 2, WriteBack: true})
	}
	bank := mustBank(t, cfgs)
	refs := refCaches(t, cfgs)
	probe := bank.ProbeWords()
	if probe != 4 {
		t.Fatalf("ProbeWords = %d, want 4", probe)
	}
	r := stats.NewRNG(7)
	for i := 0; i < 20000; i++ {
		// Random fetch runs like the simulator's: start anywhere, span up
		// to the next probe-block boundary.
		addr := uint32(r.Intn(100_000))
		max := int(probe - addr%probe)
		n := 1 + r.Intn(max)
		mask := bank.AccessRange(addr, n)
		var want uint64
		for ci, c := range refs {
			for w := 0; w < n; w++ {
				res := c.Access(addr+uint32(w), false)
				if !res.Hit {
					if w != 0 {
						t.Fatalf("cfg=%v: word %d of run missed after word 0", cfgs[ci], w)
					}
					want |= 1 << uint(ci)
				}
			}
		}
		if mask != want {
			t.Fatalf("run %d addr=%d n=%d: bank mask %#x, per-word mask %#x", i, addr, n, mask, want)
		}
	}
	for ci := range cfgs {
		if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
			t.Fatalf("cfg=%v: bank stats %+v, per-word stats %+v", cfgs[ci], got, want)
		}
	}
}

// TestBankFlush checks writeback accounting and post-flush cold misses
// against the per-cache model, with a flush dropped mid-stream.
func TestBankFlush(t *testing.T) {
	cfgs := []Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true},
		{SizeKW: 2, BlockWords: 8, Assoc: 2, WriteBack: true},
		{SizeKW: 4, BlockWords: 4, Assoc: 4, WriteBack: false},
	}
	bank := mustBank(t, cfgs)
	refs := refCaches(t, cfgs)
	r := stats.NewRNG(3)
	step := func(n int) {
		for i := 0; i < n; i++ {
			addr := uint32(r.Intn(50_000))
			write := r.Bool(0.4)
			bank.Access(addr, write)
			for _, c := range refs {
				c.Access(addr, write)
			}
		}
	}
	step(5000)
	bank.Flush()
	for _, c := range refs {
		c.Flush()
	}
	step(5000)
	for ci := range cfgs {
		if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
			t.Fatalf("cfg=%v: bank stats %+v, cache stats %+v", cfgs[ci], got, want)
		}
		if bank.Stats(ci).Writebacks == 0 && cfgs[ci].WriteBack {
			t.Fatalf("cfg=%v: flush recorded no writebacks", cfgs[ci])
		}
	}
}

func TestBankValidation(t *testing.T) {
	if _, err := NewBank(nil); err == nil {
		t.Fatal("empty bank accepted")
	}
	wide := make([]Config, MaxBankConfigs+1)
	for i := range wide {
		wide[i] = Config{SizeKW: 1, BlockWords: 4, Assoc: 1}
	}
	if _, err := NewBank(wide); err == nil {
		t.Fatal("overwide bank accepted")
	}
	if _, err := NewBank([]Config{{SizeKW: 3, BlockWords: 4, Assoc: 1}}); err == nil {
		t.Fatal("invalid config accepted")
	}
	b := mustBank(t, []Config{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}})
	if b.Len() != 1 || b.Config(0).SizeKW != 8 {
		t.Fatalf("accessors wrong: len=%d cfg=%v", b.Len(), b.Config(0))
	}
	b.Access(0, true)
	if b.Stats(0).Writes != 1 {
		t.Fatalf("stats %+v", b.Stats(0))
	}
	b.ResetStats()
	if b.Stats(0) != (Stats{}) {
		t.Fatal("ResetStats did not clear")
	}
}
