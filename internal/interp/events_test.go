package interp_test

import (
	"testing"

	"pipecache/internal/gen"
	"pipecache/internal/interp"
	"pipecache/internal/program"
	"pipecache/internal/stats"
)

// encodingHandler re-encodes the Handler stream in Event form so the two
// execution paths can be compared record by record.
type encodingHandler struct {
	evs []interp.Event
}

func (h *encodingHandler) Block(b *program.Block) {
	h.evs = append(h.evs, interp.Event{Kind: interp.EvBlock, A: uint32(b.ID), B: uint32(len(b.Insts))})
}

func (h *encodingHandler) Mem(b *program.Block, addr uint32, isStore bool) {
	kind := interp.EvMemLoad
	if isStore {
		kind = interp.EvMemStore
	}
	h.evs = append(h.evs, interp.Event{Kind: kind, A: addr})
}

func (h *encodingHandler) CTI(b *program.Block, taken bool) {
	kind := interp.EvCTINotTaken
	if taken {
		kind = interp.EvCTITaken
	}
	h.evs = append(h.evs, interp.Event{Kind: kind, A: uint32(b.ID)})
}

func (h *encodingHandler) LoadUse(eps, epsBlock int) {
	h.evs = append(h.evs, interp.Event{Kind: interp.EvLoadUse, A: uint32(eps), B: uint32(epsBlock)})
}

type appendSink struct {
	evs []interp.Event
}

func (s *appendSink) Events(evs []interp.Event) {
	s.evs = append(s.evs, evs...)
}

// checkStreams runs two interpreters over p with the same seed, the
// handler oracle and RunEvents with batches of at most bufCap events
// (nil buffer when bufCap is 0), through the same sequence of quantum
// budgets, and demands the identical event sequence (same kinds,
// payloads, order, and therefore identical RNG evolution) and the same
// instruction count after every quantum.
func checkStreams(t *testing.T, p *program.Program, seed uint64, quanta []int64, bufCap int) {
	t.Helper()
	ref, err := interp.New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := interp.New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := &encodingHandler{}
	sink := &appendSink{}
	var buf []interp.Event
	if bufCap > 0 {
		buf = make([]interp.Event, 0, bufCap)
	}
	for q, n := range quanta {
		ranRef := interp.RunOracle(ref, n, h)
		ranEv := ev.RunEvents(n, buf, sink)
		if ranRef != ranEv {
			t.Fatalf("%s quantum %d (%d insts): oracle executed %d, RunEvents %d", p.Name, q, n, ranRef, ranEv)
		}
		if ref.Executed() != ev.Executed() {
			t.Fatalf("%s quantum %d: executed %d vs %d", p.Name, q, ref.Executed(), ev.Executed())
		}
	}
	if len(h.evs) != len(sink.evs) {
		t.Fatalf("%s: %d oracle events vs %d stream events", p.Name, len(h.evs), len(sink.evs))
	}
	for i := range h.evs {
		if h.evs[i] != sink.evs[i] {
			t.Fatalf("%s: event %d differs: oracle %+v, stream %+v", p.Name, i, h.evs[i], sink.evs[i])
		}
	}
	if len(h.evs) == 0 {
		t.Fatalf("%s: no events recorded", p.Name)
	}
}

// TestRunEventsMatchesHandler holds the interpreter to the handler oracle
// over every Table 1 benchmark, across several quantum-sized calls, with
// a small buffer that forces mid-quantum flushes.
func TestRunEventsMatchesHandler(t *testing.T) {
	for _, spec := range gen.Table1() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p, err := gen.Build(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkStreams(t, p, spec.Seed, []int64{20_000, 20_000, 20_000, 20_000, 20_000}, 256)
		})
	}
}

// FuzzEventsDifferential holds the interpreter to the handler oracle over
// generated programs beyond the Table 1 suite: a Table 1 spec picked by
// the input, with its load, store and branch fractions, code and data
// footprints, mean loop trip count and seed perturbed by the input
// (specs the generator rejects are skipped), run through a random split
// of quantum budgets at a random batch buffer size.
func FuzzEventsDifferential(f *testing.F) {
	f.Add(uint8(4), uint8(128), uint8(128), uint8(128), uint8(128), uint8(128), uint8(12), uint64(1))
	f.Add(uint8(7), uint8(200), uint8(30), uint8(60), uint8(10), uint8(255), uint8(99), uint64(2))
	f.Add(uint8(15), uint8(40), uint8(250), uint8(240), uint8(70), uint8(5), uint8(1), uint64(3))

	specs := gen.Table1()
	f.Fuzz(func(t *testing.T, pick, load, store, branch, code, data, trip uint8, seed uint64) {
		spec := specs[int(pick)%len(specs)]
		// Fractions scale by 0.5x-1.5x; footprints by 0.25x-2x, with code
		// capped so a generation stays quick; trip counts span 1-256.
		scale := func(b uint8) float64 { return 0.5 + float64(b)/255 }
		spec.LoadFrac *= scale(load)
		spec.StoreFrac *= scale(store)
		spec.BranchFrac *= scale(branch)
		spec.CodeKW = min(spec.CodeKW*(0.25+1.75*float64(code)/255), 64)
		spec.DataKW *= 0.25 + 1.75*float64(data)/255
		spec.MeanTrip = int(trip) + 1
		spec.Seed = seed
		p, err := gen.Build(spec, 0)
		if err != nil {
			t.Skip(err)
		}
		r := stats.NewRNG(seed ^ 0x5eed)
		var quanta []int64
		for total := int64(0); total < 60_000; {
			n := int64(1 + r.Intn(12_000))
			quanta = append(quanta, n)
			total += n
		}
		bufCap := 0
		if !r.Bool(0.25) {
			bufCap = 1 + r.Intn(2048)
		}
		checkStreams(t, p, seed, quanta, bufCap)
	})
}

// TestRunEventsNilBuffer checks the internal-allocation path.
func TestRunEventsNilBuffer(t *testing.T) {
	spec, _ := gen.LookupSpec("loops")
	p, err := gen.Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	it, err := interp.New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink := &appendSink{}
	if ran := it.RunEvents(1000, nil, sink); ran < 1000 {
		t.Fatalf("ran %d < 1000", ran)
	}
	if len(sink.evs) == 0 {
		t.Fatal("no events")
	}
}
