package cpisim

import (
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/isa"
	"pipecache/internal/program"
)

// tinyLoop builds a single hot loop whose behaviour is fully predictable:
//
//	p0: b0 prologue (2 alu) -> b1
//	    b1: lw; addu(use); slt; bne backward (taken p) -> b1 / b2
//	    b2: j b0
func tinyLoop(t testing.TB, takenProb float64) *program.Program {
	t.Helper()
	bd := program.NewBuilder("tiny", 0)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	b1 := bd.NewBlock()
	b2 := bd.NewBlock()

	bd.ALU(b0, isa.ADDU, isa.T0, isa.A0, isa.A1)
	bd.ALU(b0, isa.ADDU, isa.T1, isa.A2, isa.A3)
	bd.Fallthrough(b0, b1)

	bd.Load(b1, isa.T2, isa.GP, 0, program.MemBehavior{Kind: program.MemGP, Offset: 0})
	bd.ALU(b1, isa.ADDU, isa.T3, isa.T2, isa.T0) // use at distance 0
	bd.ALU(b1, isa.SLT, isa.T9, isa.T3, isa.T1)
	bd.Branch(b1, isa.BNE, isa.T9, isa.Zero, b1, b2, takenProb)

	bd.Jump(b2, b0)

	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x10000, GPSize: 64, StackBase: 0x20000, FrameSize: 64}
	return p
}

func icfg() cache.Config {
	return cache.Config{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true}
}

func run(t *testing.T, cfg Config, p *program.Program, n int64) *Result {
	t.Helper()
	sim, err := New(cfg, []Workload{{Prog: p, Seed: 9, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestZeroSlotsZeroStalls(t *testing.T) {
	p := tinyLoop(t, 0.9)
	res := run(t, Config{ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}}, p, 5000)
	b := &res.Benches[0]
	if b.BranchStall != 0 || b.LoadStall != 0 || b.FillStall != 0 {
		t.Fatalf("zero-delay architecture stalled: %+v", b)
	}
	if b.Insts < 5000 {
		t.Fatalf("insts = %d", b.Insts)
	}
	// CPI with perfect caches is exactly 1.
	if cpi := b.CPI(-1, -1, 0, 0); cpi != 1 {
		t.Fatalf("CPI = %g, want 1", cpi)
	}
}

func TestLoadStallStaticHidden(t *testing.T) {
	// The loop's load has epsilon 0 (used immediately): with l=2 and
	// static scheduling every consumed load stalls 2 cycles.
	p := tinyLoop(t, 0.9)
	res := run(t, Config{LoadSlots: 2}, p, 5000)
	b := &res.Benches[0]
	if b.LoadUses == 0 {
		t.Fatal("no load uses")
	}
	perUse := float64(b.LoadStall) / float64(b.LoadUses)
	if perUse < 1.9 || perUse > 2.0 {
		t.Fatalf("stall per consumed load = %g, want ~2", perUse)
	}
}

func TestLoadStallZeroWhenFarUse(t *testing.T) {
	// A load whose use is 3 instructions away hides l<=3 entirely.
	bd := program.NewBuilder("far", 0)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	bd.Load(b0, isa.T2, isa.GP, 0, program.MemBehavior{Kind: program.MemGP, Offset: 0})
	bd.ALU(b0, isa.ADDU, isa.T3, isa.T0, isa.T1)
	bd.ALU(b0, isa.ADDU, isa.T4, isa.T0, isa.T1)
	bd.ALU(b0, isa.ADDU, isa.T5, isa.T0, isa.T1)
	bd.ALU(b0, isa.ADDU, isa.T6, isa.T2, isa.T0) // use at distance 3
	bd.Jump(b0, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x1000, GPSize: 64, StackBase: 0x2000, FrameSize: 64}
	res := run(t, Config{LoadSlots: 3}, p, 3000)
	if res.Benches[0].LoadStall != 0 {
		t.Fatalf("stall = %d, want 0", res.Benches[0].LoadStall)
	}
}

func TestDynamicHidesMoreThanStatic(t *testing.T) {
	// Load at end of a block, used in the next block: static (block
	// restricted) cannot hide, dynamic can.
	bd := program.NewBuilder("cross", 0)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	b1 := bd.NewBlock()
	bd.ALU(b0, isa.ADDU, isa.T3, isa.T0, isa.T1)
	bd.Load(b0, isa.T2, isa.GP, 0, program.MemBehavior{Kind: program.MemGP, Offset: 0})
	bd.Fallthrough(b0, b1)
	bd.ALU(b1, isa.ADDU, isa.T4, isa.T0, isa.T1)
	bd.ALU(b1, isa.ADDU, isa.T5, isa.T0, isa.T1)
	bd.ALU(b1, isa.ADDU, isa.T6, isa.T2, isa.T0) // dynamic distance 2
	bd.Jump(b1, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x1000, GPSize: 64, StackBase: 0x2000, FrameSize: 64}

	static := run(t, Config{LoadSlots: 2, LoadScheme: LoadStatic}, p, 3000)
	dynamic := run(t, Config{LoadSlots: 2, LoadScheme: LoadDynamic}, p, 3000)
	if static.Benches[0].LoadStall == 0 {
		t.Fatal("static scheme hid a cross-block use")
	}
	if dynamic.Benches[0].LoadStall != 0 {
		t.Fatalf("dynamic scheme stalled %d", dynamic.Benches[0].LoadStall)
	}
}

func TestBranchStallStaticCorrectPrediction(t *testing.T) {
	// Backward branch taken 100% of the time and predicted taken; the
	// condition is set right before (r=0, s=b replicas), but prediction is
	// always right, so nothing is squashed.
	p := tinyLoop(t, 1.0)
	res := run(t, Config{BranchSlots: 2}, p, 5000)
	b := &res.Benches[0]
	if b.BranchStall != 0 {
		t.Fatalf("perfectly predicted loop stalled %d cycles", b.BranchStall)
	}
}

func TestBranchStallStaticMisprediction(t *testing.T) {
	// Taken 50%: every not-taken execution squashes s=2 replicas.
	p := tinyLoop(t, 0.5)
	res := run(t, Config{BranchSlots: 2}, p, 20000)
	b := &res.Benches[0]
	if b.BranchStall == 0 {
		t.Fatal("mispredicted branches did not stall")
	}
	// Roughly: half the b1 executions mispredict, each costing 2; plus
	// the j in b2 contributes hoistable slots (r=1,s=1 replicas,
	// prediction always right). Loop CTIs dominate. Expect stall per CTI
	// within (0.3, 1.2).
	perCTI := b.BranchStallPerCTI()
	if perCTI < 0.3 || perCTI > 1.2 {
		t.Fatalf("stall per CTI = %g", perCTI)
	}
}

func TestIFetchesReflectCodeExpansion(t *testing.T) {
	// With b=2 the loop block carries 2 replicas; when the branch is
	// taken (predicted taken) the target re-entry skips them, so the
	// fetch count matches: block fetched in full, skip 2 next time.
	p := tinyLoop(t, 1.0)
	res0 := run(t, Config{BranchSlots: 0, ICaches: []cache.Config{icfg()}}, p, 5000)
	res2 := run(t, Config{BranchSlots: 2, ICaches: []cache.Config{icfg()}}, p, 5000)
	f0 := float64(res0.Benches[0].IFetches) / float64(res0.Benches[0].Insts)
	f2 := float64(res2.Benches[0].IFetches) / float64(res2.Benches[0].Insts)
	// Correctly predicted taken branches fetch replicas but skip the
	// originals: fetch counts stay close.
	if f2 < f0*0.95 || f2 > f0*1.3 {
		t.Fatalf("fetches per inst: b=0 %.3f vs b=2 %.3f", f0, f2)
	}
}

func TestBTBLearnsLoop(t *testing.T) {
	// A 100%-taken loop is fully predicted after warmup: stalls only from
	// cold misses.
	p := tinyLoop(t, 1.0)
	res := run(t, Config{BranchSlots: 2, BranchScheme: BranchBTB}, p, 20000)
	b := &res.Benches[0]
	perCTI := b.BranchStallPerCTI()
	if perCTI > 0.05 {
		t.Fatalf("BTB stall per CTI = %g on a steady loop", perCTI)
	}
	if b.BTBOutcomes[0] == 0 { // OutcomeCorrect
		t.Fatal("no correct BTB predictions")
	}
}

func TestBTBMispredictCharged(t *testing.T) {
	p := tinyLoop(t, 0.5)
	res := run(t, Config{BranchSlots: 3, BranchScheme: BranchBTB}, p, 20000)
	b := &res.Benches[0]
	if b.BranchStall == 0 || b.FillStall == 0 {
		t.Fatalf("BTB mispredictions not charged: %+v", b)
	}
}

func TestCPIIncludesMissCycles(t *testing.T) {
	p := tinyLoop(t, 0.9)
	res := run(t, Config{
		ICaches: []cache.Config{icfg()},
		DCaches: []cache.Config{icfg()},
	}, p, 5000)
	b := &res.Benches[0]
	base := b.CPI(-1, -1, 0, 0)
	with := b.CPI(0, 0, 10, 10)
	if with < base {
		t.Fatalf("CPI with miss cycles %g < base %g", with, base)
	}
	// Tiny loop fits the cache: after cold misses the difference is small.
	if with > base+0.1 {
		t.Fatalf("tiny loop shows large miss CPI: %g vs %g", with, base)
	}
}

func TestHigherPenaltyHigherCPI(t *testing.T) {
	p := tinyLoop(t, 0.9)
	res := run(t, Config{ICaches: []cache.Config{icfg()}}, p, 5000)
	b := &res.Benches[0]
	if b.CPI(0, -1, 18, 0) < b.CPI(0, -1, 6, 0) {
		t.Fatal("CPI not monotone in penalty")
	}
}

func TestMultiprogrammingInterference(t *testing.T) {
	// Two processes sharing a tiny I-cache must miss at least as much as
	// one process alone.
	p1 := tinyLoop(t, 0.9)
	bd := program.NewBuilder("other", 1<<24)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	for i := 0; i < 6; i++ {
		bd.ALU(b0, isa.ADDU, isa.T0, isa.A0, isa.A1)
	}
	bd.Jump(b0, b0)
	bd.SetEntry(main)
	p2, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p2.Data = program.DataLayout{GPBase: 1<<24 + 0x1000, GPSize: 64, StackBase: 1<<24 + 0x2000, FrameSize: 64}

	cfg := Config{ICaches: []cache.Config{icfg()}, Quantum: 100}
	solo, err := New(cfg, []Workload{{Prog: p1, Seed: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	soloRes, err := solo.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	duo, err := New(cfg, []Workload{
		{Prog: p1, Seed: 1, Weight: 0.5},
		{Prog: p2, Seed: 2, Weight: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	duoRes, err := duo.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if duoRes.Benches[0].IMisses[0] < soloRes.Benches[0].IMisses[0] {
		t.Fatalf("sharing reduced misses: %d vs %d",
			duoRes.Benches[0].IMisses[0], soloRes.Benches[0].IMisses[0])
	}
}

func TestAggregateCPIHarmonicMean(t *testing.T) {
	p := tinyLoop(t, 0.9)
	res := run(t, Config{}, p, 2000)
	cpi, err := res.CPI(-1, -1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cpi != 1 {
		t.Fatalf("aggregate CPI = %g", cpi)
	}
}

func TestConfigValidation(t *testing.T) {
	p := tinyLoop(t, 0.9)
	bad := []Config{
		{BranchSlots: -1},
		{BranchSlots: 9},
		{LoadSlots: -1},
		{ICaches: []cache.Config{{SizeKW: 3, BlockWords: 4, Assoc: 1}}},
		{Quantum: -5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, []Workload{{Prog: p, Seed: 1, Weight: 1}}); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("empty workload list accepted")
	}
	sim, _ := New(Config{}, []Workload{{Prog: p, Seed: 1, Weight: 1}})
	if _, err := sim.Run(0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestSchemeStrings(t *testing.T) {
	if BranchStatic.String() != "static" || BranchBTB.String() != "btb" {
		t.Fatal("branch scheme strings")
	}
	if LoadStatic.String() != "static" || LoadDynamic.String() != "dynamic" {
		t.Fatal("load scheme strings")
	}
}

func TestPredStatsRecorded(t *testing.T) {
	p := tinyLoop(t, 0.8)
	res := run(t, Config{BranchSlots: 1}, p, 10000)
	tf, ta := res.PredTakenFrac()
	if tf <= 0 || ta <= 0 {
		t.Fatalf("pred-taken stats %g/%g", tf, ta)
	}
	// The backward loop branch and the j are predicted taken; taken
	// accuracy should be near the loop probability mixed with the
	// always-taken jump.
	if ta < 0.75 {
		t.Fatalf("taken accuracy %g too low", ta)
	}
}
