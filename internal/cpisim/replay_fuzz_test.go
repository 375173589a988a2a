package cpisim

import (
	"reflect"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/obs"
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

// FuzzReplayDifferential holds the replay dispatch to the live oracle over
// random small configurations: ladders of any size, block, associativity,
// write and replacement policy, random delay-slot counts, branch and load
// schemes, and replay and capture quanta. A live pass, the sequential
// Replay, and a two-worker ReplaySharded must agree on the Result, the
// published counters, and every configuration's folded bank statistics.
func FuzzReplayDifferential(f *testing.F) {
	// A packed direct-mapped ladder (inside the sharded gate).
	f.Add([]byte{0x11, 0x00, 0x12, 0x00, 0x01, 0x00}, []byte{0x11, 0x00, 0x02, 0x00}, uint8(2), uint8(2), uint16(700), uint16(20_000), uint8(0))
	// Single direct-mapped caches (the inlined cache.Direct probe views).
	f.Add([]byte{0x17, 0x00}, []byte{0x15, 0x00}, uint8(2), uint8(1), uint16(20_000), uint16(2_500), uint8(0))
	// Set-associative FIFO and Tree-PLRU ladders (sequential fallback).
	f.Add([]byte{0x15, 0x05, 0x02, 0x01}, []byte{0x19, 0x0a, 0x13, 0x06}, uint8(1), uint8(3), uint16(3_000), uint16(500), uint8(0))
	// The BTB scheme with dynamic loads and no I-caches.
	f.Add([]byte{}, []byte{0x10, 0x01, 0x1f, 0x03}, uint8(3), uint8(1), uint16(1_234), uint16(7_000), uint8(3))

	ws := replayWorkloads(f)
	const insts = 5_000
	f.Fuzz(func(t *testing.T, iLadder, dLadder []byte, bslots, lslots uint8, quantum, capQuantum uint16, schemes uint8) {
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
		_, tr := captureTrace(t, Config{Quantum: 100 + int64(capQuantum)}, ws, insts)
		defer tr.Release()

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
		live := run("live", func(s *Sim) (*Result, error) { return s.Run(insts) })
		for _, got := range []struct {
			name string
			p    pass
		}{
			{"replay", run("replay", func(s *Sim) (*Result, error) { return s.Replay(insts, tr) })},
			{"sharded", run("sharded", func(s *Sim) (*Result, error) { return s.ReplaySharded(insts, tr, 2) })},
		} {
			if !reflect.DeepEqual(got.p.res, live.res) {
				t.Errorf("%s result differs from live under %+v", got.name, cfg)
			}
			if !reflect.DeepEqual(got.p.ist, live.ist) || !reflect.DeepEqual(got.p.dst, live.dst) {
				t.Errorf("%s bank stats differ from live under %+v", got.name, cfg)
			}
			if !reflect.DeepEqual(got.p.counters, live.counters) {
				t.Errorf("%s counters differ from live under %+v", got.name, cfg)
			}
		}
	})
}
