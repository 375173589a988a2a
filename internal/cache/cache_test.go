package cache

import (
	"testing"
	"testing/quick"

	"pipecache/internal/stats"
)

// one builds a single-configuration bank: the simulator's model of one
// cache.
func one(t *testing.T, cfg Config) *Bank {
	t.Helper()
	return mustBank(t, []Config{cfg})
}

func dm(t *testing.T, sizeKW, block int) *Bank {
	return one(t, Config{SizeKW: sizeKW, BlockWords: block, Assoc: 1, WriteBack: true})
}

// hit probes one access of a single-configuration bank and reports
// whether it hit.
func hit(c *Bank, addr uint32, write bool) bool { return c.Access(addr, write) == 0 }

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1},
		{SizeKW: 32, BlockWords: 16, Assoc: 4},
		{SizeKW: 2, BlockWords: 8, Assoc: 2, WriteBack: true},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", c, err)
		}
	}
	bad := []Config{
		{SizeKW: 0, BlockWords: 4, Assoc: 1},
		{SizeKW: 3, BlockWords: 4, Assoc: 1},
		{SizeKW: 1, BlockWords: 0, Assoc: 1},
		{SizeKW: 1, BlockWords: 5, Assoc: 1},
		{SizeKW: 1, BlockWords: 4, Assoc: 0},
		{SizeKW: 1, BlockWords: 4, Assoc: 3},
		{SizeKW: 1, BlockWords: 1024, Assoc: 2}, // ways exceed capacity
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v: expected error", c)
		}
	}
}

func TestConfigString(t *testing.T) {
	c := Config{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}
	if got := c.String(); got != "8KW/4W direct write-back" {
		t.Fatalf("String = %q", got)
	}
	c2 := Config{SizeKW: 2, BlockWords: 8, Assoc: 4}
	if got := c2.String(); got != "2KW/8W 4-way write-through" {
		t.Fatalf("String = %q", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := dm(t, 1, 4)
	if hit(c, 100, false) {
		t.Fatal("cold access hit")
	}
	if !hit(c, 100, false) {
		t.Fatal("second access missed")
	}
	// Same block, different word.
	if !hit(c, 103, false) {
		t.Fatal("same-block access missed")
	}
	// 100 is in block [100..103]; 104 is the next block.
	if hit(c, 104, false) {
		t.Fatal("next-block access hit")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 1KW direct-mapped, 4W blocks: 256 sets; addresses 1024 words apart
	// conflict.
	c := dm(t, 1, 4)
	c.Access(0, false)
	c.Access(1024, false) // evicts block 0
	if hit(c, 0, false) {
		t.Fatal("conflicting block survived")
	}
}

func TestSetAssociativityAvoidsConflict(t *testing.T) {
	c := one(t, Config{SizeKW: 1, BlockWords: 4, Assoc: 2, WriteBack: true})
	c.Access(0, false)
	c.Access(2048, false) // same set, second way (128 sets * 4 words * ... )
	if !hit(c, 0, false) {
		t.Fatal("2-way cache evicted with one conflicting block")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := one(t, Config{SizeKW: 1, BlockWords: 4, Assoc: 2, WriteBack: true})
	// Set stride = sets*block = 128*4 = 512 words.
	a, b, d := uint32(0), uint32(512*4), uint32(512*8)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b (LRU)
	// Probe the survivors first: each hit only reorders {a, d}.
	if !hit(c, a, false) {
		t.Fatal("recently used line evicted")
	}
	if !hit(c, d, false) {
		t.Fatal("new line absent")
	}
	if hit(c, b, false) {
		t.Fatal("LRU line survived")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := dm(t, 1, 4)
	c.Access(0, true) // write-allocate, dirty
	if hit(c, 1024, false) {
		t.Fatal("conflicting read hit")
	}
	if st := c.Stats(0); st.Writebacks != 1 || st.ReadMisses != 1 {
		t.Fatalf("expected a fill with one writeback, stats %+v", st)
	}
}

func TestWriteBackCleanEviction(t *testing.T) {
	c := dm(t, 1, 4)
	c.Access(0, false) // clean
	if hit(c, 1024, false) {
		t.Fatal("conflicting read hit")
	}
	if c.Stats(0).Writebacks != 0 {
		t.Fatal("clean eviction reported writeback")
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := one(t, Config{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: false})
	if hit(c, 0, true) {
		t.Fatal("cold write hit")
	}
	st := c.Stats(0)
	if st.Throughs != 1 || st.WriteMisses != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The write miss did not allocate, so the read misses and fills.
	if hit(c, 0, false) {
		t.Fatal("no-write-allocate cache filled on write miss")
	}
	// Write hit also forwards through.
	if !hit(c, 0, true) {
		t.Fatal("write after fill missed")
	}
	if c.Stats(0).Throughs != 2 {
		t.Fatalf("write hit not forwarded: %+v", c.Stats(0))
	}
}

func TestStatsCounting(t *testing.T) {
	c := dm(t, 1, 4)
	c.Access(0, false) // read miss
	c.Access(0, false) // read hit
	c.Access(64, true) // write miss
	c.Access(64, true) // write hit
	st := c.Stats(0)
	if st.Reads != 2 || st.Writes != 2 || st.ReadMisses != 1 || st.WriteMisses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Accesses() != 4 || st.Misses() != 2 {
		t.Fatalf("aggregates wrong: %+v", st)
	}
	if st.MissRatio() != 0.5 {
		t.Fatalf("miss ratio %g", st.MissRatio())
	}
	c.ResetStats()
	if c.Stats(0).Accesses() != 0 {
		t.Fatal("ResetStats did not clear")
	}
	if !hit(c, 0, false) {
		t.Fatal("ResetStats flushed contents")
	}
}

func TestMissRatioEmptyCache(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Fatal("empty stats miss ratio nonzero")
	}
}

func TestFlush(t *testing.T) {
	c := dm(t, 1, 4)
	c.Access(0, true) // dirty line
	c.Access(64, false)
	c.Flush()
	if c.Stats(0).Writebacks != 1 {
		t.Fatalf("flush writebacks = %d", c.Stats(0).Writebacks)
	}
	if hit(c, 0, false) || hit(c, 64, false) {
		t.Fatal("flush left lines valid")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set equal to the capacity, accessed repeatedly, misses
	// only on the cold pass.
	c := dm(t, 1, 4)
	words := 1024
	for pass := 0; pass < 3; pass++ {
		for a := 0; a < words; a += 4 {
			c.Access(uint32(a), false)
		}
	}
	st := c.Stats(0)
	if got, want := st.Misses(), uint64(words/4); got != want {
		t.Fatalf("misses = %d, want %d (cold only)", got, want)
	}
}

func TestLargerCacheNeverWorseOnScan(t *testing.T) {
	// A cyclic scan larger than the small cache: the larger cache must
	// have at most as many misses.
	small := dm(t, 1, 4)
	big := dm(t, 4, 4)
	r := stats.NewRNG(7)
	var addrs []uint32
	for i := 0; i < 20000; i++ {
		addrs = append(addrs, uint32(r.Intn(3*1024)))
	}
	for _, a := range addrs {
		small.Access(a, false)
		big.Access(a, false)
	}
	if big.Stats(0).Misses() > small.Stats(0).Misses() {
		t.Fatalf("bigger cache missed more: %d vs %d", big.Stats(0).Misses(), small.Stats(0).Misses())
	}
}

func TestHigherAssocInclusionProperty(t *testing.T) {
	// With the same set count, a higher-associativity LRU cache contains a
	// superset of the lines (the classic LRU inclusion property), so it
	// never misses more on any trace.
	f := func(seed uint64) bool {
		a1 := mustBankQuick(Config{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true})
		a2 := mustBankQuick(Config{SizeKW: 2, BlockWords: 4, Assoc: 2, WriteBack: true}) // same 256 sets
		r := stats.NewRNG(seed)
		for i := 0; i < 5000; i++ {
			addr := uint32(r.Intn(8192))
			a1.Access(addr, false)
			a2.Access(addr, false)
		}
		return a2.Stats(0).Misses() <= a1.Stats(0).Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		c1 := mustBankQuick(Config{SizeKW: 2, BlockWords: 8, Assoc: 2, WriteBack: true})
		c2 := mustBankQuick(Config{SizeKW: 2, BlockWords: 8, Assoc: 2, WriteBack: true})
		r1 := stats.NewRNG(seed)
		r2 := stats.NewRNG(seed)
		for i := 0; i < 2000; i++ {
			a1 := uint32(r1.Intn(100000))
			a2 := uint32(r2.Intn(100000))
			w1 := r1.Bool(0.3)
			w2 := r2.Bool(0.3)
			if c1.Access(a1, w1) != c2.Access(a2, w2) {
				return false
			}
		}
		return c1.Stats(0) == c2.Stats(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func mustBankQuick(cfg Config) *Bank {
	c, err := NewBank([]Config{cfg})
	if err != nil {
		panic(err)
	}
	return c
}

func TestRefillPenalty(t *testing.T) {
	// The paper's penalties: 2-cycle startup plus block/rate.
	cases := []struct{ block, rate, want int }{
		{16, 4, 6},
		{16, 2, 10},
		{16, 1, 18},
		{4, 2, 4},
		{4, 4, 3},
		{8, 4, 4},
	}
	for _, c := range cases {
		if got := RefillPenalty(c.block, c.rate); got != c.want {
			t.Errorf("RefillPenalty(%d,%d) = %d, want %d", c.block, c.rate, got, c.want)
		}
	}
}

func TestRefillPenaltyRoundsUp(t *testing.T) {
	if got := RefillPenalty(4, 8); got != 3 {
		t.Fatalf("RefillPenalty(4,8) = %d, want 3 (ceil(0.5)=1 + 2)", got)
	}
}
