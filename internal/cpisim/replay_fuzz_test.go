package cpisim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/obs"
	"pipecache/internal/trace"
)

// fuzzLadder decodes a small cache ladder, two bytes per configuration
// (at most four): the first byte picks size (1-8 KW), block (1-8 words)
// and write policy, the second associativity (1-8 ways) and replacement
// policy. Every decoded configuration is valid.
func fuzzLadder(b []byte) []cache.Config {
	var cfgs []cache.Config
	for i := 0; i+1 < len(b) && len(cfgs) < 4; i += 2 {
		cfgs = append(cfgs, cache.Config{
			SizeKW:     1 << (b[i] & 3),
			BlockWords: 1 << (b[i] >> 2 & 3),
			WriteBack:  b[i]&0x10 != 0,
			Assoc:      1 << (b[i+1] & 3),
			Policy:     cache.Policy(b[i+1] >> 2 % 3),
		})
	}
	return cfgs
}

// chunkColumns is one captured stream as the columns its chunks hold:
// an unbounded turn delivers every chunk wholesale, one call per chunk.
type chunkColumns struct {
	kinds [][]uint8
	as    [][]uint32
	bs    [][]uint32
}

func (c *chunkColumns) EventColumns(kinds []uint8, as, bs []uint32) {
	c.kinds = append(c.kinds, kinds)
	c.as = append(c.as, as)
	c.bs = append(c.bs, bs)
}

func traceColumns(tr *trace.EventTrace) []chunkColumns {
	out := make([]chunkColumns, tr.Len())
	for i := range out {
		cur := tr.Cursor(i)
		cur.Turn(math.MaxInt64, &out[i])
	}
	return out
}

// captureWorkers are the capture pool widths the fuzzer picks from.
var captureWorkers = []int{1, 2, 3, 8}

// FuzzReplayDifferential holds the capture and replay path to the live
// oracle over random small configurations: ladders of any size, block,
// associativity, write and replacement policy, random delay-slot counts,
// branch and load schemes, replay quanta, and capture worker counts. A
// trace recorded at the picked worker count must hold the same chunk
// columns as a one-worker capture, and a live pass and the Replay of that
// trace must agree on the Result, the published counters, and every
// configuration's folded bank statistics.
func FuzzReplayDifferential(f *testing.F) {
	// A packed direct-mapped ladder.
	f.Add([]byte{0x11, 0x00, 0x12, 0x00, 0x01, 0x00}, []byte{0x11, 0x00, 0x02, 0x00}, uint8(2), uint8(2), uint16(700), uint16(1), uint8(0))
	// Single direct-mapped caches (the inlined cache.Direct probe views).
	f.Add([]byte{0x17, 0x00}, []byte{0x15, 0x00}, uint8(2), uint8(1), uint16(20_000), uint16(3), uint8(0))
	// Set-associative FIFO and Tree-PLRU ladders (general bank kernels).
	f.Add([]byte{0x15, 0x05, 0x02, 0x01}, []byte{0x19, 0x0a, 0x13, 0x06}, uint8(1), uint8(3), uint16(3_000), uint16(2), uint8(0))
	// The BTB scheme with dynamic loads and no I-caches.
	f.Add([]byte{}, []byte{0x10, 0x01, 0x1f, 0x03}, uint8(3), uint8(1), uint16(1_234), uint16(0), uint8(3))

	ws := replayWorkloads(f)
	const insts = 5_000
	ref := captureTrace(f, ws, insts, 1)
	f.Cleanup(ref.Release)
	refCols := traceColumns(ref)
	f.Fuzz(func(t *testing.T, iLadder, dLadder []byte, bslots, lslots uint8, quantum, workerSel uint16, schemes uint8) {
		cfg := Config{
			BranchSlots: int(bslots % 4),
			LoadSlots:   int(lslots % 4),
			ICaches:     fuzzLadder(iLadder),
			DCaches:     fuzzLadder(dLadder),
			Quantum:     100 + int64(quantum),
		}
		if schemes&1 != 0 {
			cfg.BranchScheme = BranchBTB
		}
		if schemes&2 != 0 {
			cfg.LoadScheme = LoadDynamic
		}
		workers := captureWorkers[int(workerSel)%len(captureWorkers)]
		tr := captureTrace(t, ws, insts, workers)
		defer tr.Release()
		if !reflect.DeepEqual(traceColumns(tr), refCols) {
			t.Fatalf("capture at %d workers holds different chunk columns than at 1", workers)
		}

		type pass struct {
			res      *Result
			ist, dst []cache.Stats
			counters map[string]int64
		}
		run := func(name string, drive func(s *Sim) (*Result, error)) pass {
			sim, err := New(cfg, ws)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			reg := obs.NewRegistry()
			sim.SetObs(reg)
			res, err := drive(sim)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return pass{res, bankStats(sim.ibank, len(cfg.ICaches)), bankStats(sim.dbank, len(cfg.DCaches)), reg.Snapshot().Counters}
		}
		live := run("live", func(s *Sim) (*Result, error) { return s.RunContext(context.Background(), insts) })
		got := run("replay", func(s *Sim) (*Result, error) { return s.Replay(insts, tr) })
		if !reflect.DeepEqual(got.res, live.res) {
			t.Errorf("replay result differs from live under %+v", cfg)
		}
		if !reflect.DeepEqual(got.ist, live.ist) || !reflect.DeepEqual(got.dst, live.dst) {
			t.Errorf("replay bank stats differ from live under %+v", cfg)
		}
		if !reflect.DeepEqual(got.counters, live.counters) {
			t.Errorf("replay counters differ from live under %+v", cfg)
		}
	})
}
