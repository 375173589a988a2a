package pipecache

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, each printing the rows/series it reproduces (compare against
// EXPERIMENTS.md), plus microbenchmarks of the simulator substrate.
//
// The full 16-benchmark suite is synthesized once per test binary; the
// per-pass instruction budget defaults to 300k per benchmark and can be
// raised with PIPECACHE_BENCH_INSTS for full-fidelity runs:
//
//	PIPECACHE_BENCH_INSTS=2000000 go test -bench=. -benchtime=1x

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixture memoizes one expensive benchmark setup for the life of the test
// binary: go test -bench and testing.Benchmark call a benchmark function
// several times while sizing b.N, and the setup must run once.
type fixture[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (f *fixture[T]) get(b *testing.B, build func() (T, error)) T {
	b.Helper()
	f.once.Do(func() { f.v, f.err = build() })
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f.v
}

var paperLab fixture[*Lab]

// lab is the prewarmed full-suite lab of the table, figure, and ablation
// benchmarks.
func lab(b *testing.B) *Lab {
	b.Helper()
	return paperLab.get(b, func() (*Lab, error) {
		insts := int64(300_000)
		if s := os.Getenv("PIPECACHE_BENCH_INSTS"); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad PIPECACHE_BENCH_INSTS: %v", err)
			}
			insts = v
		}
		suite, err := BuildSuite(Benchmarks())
		if err != nil {
			return nil, err
		}
		p := DefaultParams()
		p.Insts = insts
		l, err := NewLab(suite, p)
		if err != nil {
			return nil, err
		}
		return l, l.Prewarm()
	})
}

// report prints the reproduced table/figure once per benchmark run.
func report(b *testing.B, v fmt.Stringer) {
	b.Helper()
	b.StopTimer()
	if !testing.Verbose() {
		fmt.Println(v)
	} else {
		b.Log("\n" + v.String())
	}
	b.StartTimer()
}

func BenchmarkTable1_BenchmarkMix(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable2_CodeExpansion(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable3_StaticBranchPrediction(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable4_BTB(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable5_LoadDelayCPI(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable6_CycleTimes(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure3_BranchSlotsMissCPI(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure3(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure4_CPIvsICacheSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure4(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure5_CPIvsTcpu(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure6_EpsilonUnrestricted(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure7_EpsilonRestricted(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure8_CPIvsDCacheSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure8(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure9_TPIvsDCacheSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure10_Floorplan(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Figure10()
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure11_RelativeCPI(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure11(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure12_TPIOptimum(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
			opt, err := l.BestDesign(l.P.L2TimeNs, LoadStatic, false)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			fmt.Printf("optimum: %s\n\n", opt.Best)
			b.StartTimer()
		}
	}
}

func BenchmarkFigure13_TPILowPenalty(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
			opt, err := l.BestDesign(l.P.L2TimeNs*0.6, LoadStatic, false)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			fmt.Printf("optimum (low penalty): %s\n\n", opt.Best)
			b.StartTimer()
		}
	}
}

// ---- Substrate microbenchmarks ----
//
// These and the serving benchmarks at the end of the file are the rows of
// BENCH_sim.json (bench_json_test.go). Sub-benchmark variants are
// parameterized helpers, so the JSON writer measures exactly the bodies
// go test -bench runs.

// microInsts is the per-benchmark instruction budget of the substrate and
// serving microbenchmarks (the "insts" field of BENCH_sim.json).
const microInsts = 200_000

// espressoSim is the substrate benchmarks' pass: espresso alone against
// one 8 KW direct-mapped split L1 with two branch and two load slots.
func espressoSim() (SimConfig, []Workload, error) {
	spec, _ := LookupBenchmark("espresso")
	prog, err := BuildProgram(spec, 0)
	cfg := SimConfig{
		BranchSlots: 2,
		LoadSlots:   2,
		ICaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
		DCaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
	}
	return cfg, []Workload{{Prog: prog, Seed: spec.Seed, Weight: 1}}, err
}

// BenchmarkSimulatorThroughput measures end-to-end simulated instructions
// per second through the interpreter + caches + delay accounting.
func BenchmarkSimulatorThroughput(b *testing.B) { benchLivePass(b, nil) }

// BenchmarkSimInstrumented is BenchmarkSimulatorThroughput with a metrics
// registry attached: the delta between the two insts/s figures is the cost
// of observability. The hot loop keeps its plain per-pass stats structs and
// folds them into the registry once at the end of Run, so the delta should
// be in the noise (see TestInstrumentationOverhead).
func BenchmarkSimInstrumented(b *testing.B) { benchLivePass(b, NewRegistry()) }

// benchLivePass runs one live espresso pass per iteration, publishing into
// reg when it is non-nil.
func benchLivePass(b *testing.B, reg *Registry) {
	cfg, ws, err := espressoSim()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(cfg, ws)
		if err != nil {
			b.Fatal(err)
		}
		if reg != nil {
			sim.SetObs(reg)
		}
		res, err := sim.Run(microInsts)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Benches[0].Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// replayRig is one captured espresso event trace, shared by the replay
// benchmarks (and so one set of compiled chunk plans).
type replayRig struct {
	cfg SimConfig
	ws  []Workload
	tr  *EventTrace
}

var replayFix fixture[replayRig]

// BenchmarkTraceReplay measures the replay kernel: one full espresso pass
// per iteration over a pre-captured event trace, through the compiled
// chunk plans and the lane-packed banks. The insts/s metric is the
// headline replay throughput (compare BENCH_sim.json).
func BenchmarkTraceReplay(b *testing.B) {
	rig := replayFix.get(b, func() (replayRig, error) {
		cfg, ws, err := espressoSim()
		if err != nil {
			return replayRig{}, err
		}
		tr, err := RecordEventTrace(context.Background(), "bench", microInsts, ws, 1)
		return replayRig{cfg, ws, tr}, err
	})
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(rig.cfg, rig.ws)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Replay(microInsts, rig.tr)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Benches[0].Insts
		sim.Release()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkCapture measures the capture half of a cold pass: the gcc+yacc
// event streams recorded at microInsts per benchmark, each benchmark
// interpreted on its own goroutine (GOMAXPROCS at once). The insts/s
// metric counts the instructions of every benchmark.
func BenchmarkCapture(b *testing.B) {
	ws := smallSuite(b).Workloads()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		tr, err := RecordEventTrace(context.Background(), "bench", microInsts, ws, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < tr.Len(); j++ {
			total += tr.Bench(j).Insts()
		}
		tr.Release()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkCacheAccess measures the raw cache model: the direct-mapped
// fast path against the LRU set-search paths.
func BenchmarkCacheAccess(b *testing.B) {
	for _, v := range []struct {
		name  string
		assoc int
	}{
		{"direct", 1},
		{"2way", 2},
		{"4way", 4},
	} {
		b.Run(v.name, func(b *testing.B) { benchCacheAccess(b, v.assoc) })
	}
}

// benchCacheAccess probes one 8 KW write-back cache of the given
// associativity with a strided, one-in-eight-writes address stream.
func benchCacheAccess(b *testing.B, assoc int) {
	c, err := NewCache(CacheConfig{SizeKW: 8, BlockWords: 4, Assoc: assoc, WriteBack: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*7)&0xfffff, i&7 == 0)
	}
}

// BenchmarkCacheBankAccess measures the fused single-pass kernel over the
// study's full power-of-two size ladder: one probe evaluates all six
// configurations at once against the lane-packed tag table. The
// ns/probe/config metric normalizes by the ladder width, so it compares
// directly against BenchmarkCacheAccess's per-cache ns/op whatever the
// ladder size.
func BenchmarkCacheBankAccess(b *testing.B) {
	var cfgs []CacheConfig
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		cfgs = append(cfgs, CacheConfig{SizeKW: s, BlockWords: 4, Assoc: 1, WriteBack: true})
	}
	bank, err := NewCacheBank(cfgs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Access(uint32(i*7)&0xfffff, i&7 == 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cfgs)), "ns/probe/config")
}

// BenchmarkBTBResolve measures the branch-target buffer.
func BenchmarkBTBResolve(b *testing.B) {
	buf, err := NewBTB(PaperBTB())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint32(i*13) & 0xffff
		buf.Resolve(pc, i&3 != 0, pc+64)
	}
}

// BenchmarkInterp measures the bare interpreter event stream.
func BenchmarkInterp(b *testing.B) {
	spec, _ := LookupBenchmark("loops")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	it, err := NewInterp(prog, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCollector(8)
	b.ResetTimer()
	it.Run(int64(b.N), c)
}

// BenchmarkTimingAnalyzer measures the Karp max-cycle-mean solver on the
// CPU graph.
func BenchmarkTimingAnalyzer(b *testing.B) {
	m := DefaultTimingModel()
	for i := 0; i < b.N; i++ {
		if _, err := m.TCPU(32, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslate measures the delay-slot post-processor on a full
// benchmark image.
func BenchmarkTranslate(b *testing.B) {
	spec, _ := LookupBenchmark("gcc")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Translate(prog, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benchmarks (the paper's extensions and future work) ----

func BenchmarkAblation_Associativity(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.AssocStudy(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_BlockSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.BlockSizeStudy(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_TwoLevel(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.TwoLevelStudy(4, []int{32, 64, 128, 256, 512}, 6, 40)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_WritePolicy(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.WritePolicyStudy(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

// BenchmarkPolicyStudy runs the replacement-policy ablation end to end on
// a fresh gcc+yacc lab per iteration — memos cold every time — so it
// prices the per-policy bank construction plus the FIFO and Tree-PLRU
// probe kernels on the set-associative study workload, next to the LRU
// pass they must not slow down.
func BenchmarkPolicyStudy(b *testing.B) {
	suite := smallSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := microParams()
		p.TraceBudgetBytes = -1
		l, err := NewLab(suite, p)
		if err != nil {
			b.Fatal(err)
		}
		l.SetObs(NewRegistry())
		r, err := l.PolicyStudy(4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_BTBSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.BTBSizeStudy([]int{64, 256, 1024, 4096})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_ProfilePrediction(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.ProfileStudy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_Quantum(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.QuantumStudy(8, 10, []int64{2000, 20000, 100000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_Stability(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.StabilityStudy([]uint64{0, 0xA5A5, 0x5A5A})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
			b.StopTimer()
			fmt.Printf("optimal depths agree across seeds: %v\n\n", r.DepthsAgree())
			b.StartTimer()
		}
	}
}

func BenchmarkDepthMatrix(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.DepthMatrix(l.P.L2TimeNs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
			b.StopTimer()
			fmt.Printf("b = l diagonal optimal: %v\n\n", r.DiagonalOptimal(0.05))
			b.StartTimer()
		}
	}
}

func BenchmarkAsymmetricSplits(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.AsymmetryStudy(l.P.L2TimeNs * 0.6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

// ---- Serving and end-to-end microbenchmarks (gcc+yacc at microInsts) ----

var smallSuiteFix fixture[*Suite]

// smallSuite is the two-benchmark suite of the serving and study
// microbenchmarks; programs are immutable, so every lab shares it.
func smallSuite(b *testing.B) *Suite {
	b.Helper()
	return smallSuiteFix.get(b, func() (*Suite, error) {
		var specs []Spec
		for _, name := range []string{"gcc", "yacc"} {
			s, ok := LookupBenchmark(name)
			if !ok {
				return nil, fmt.Errorf("benchmark %s missing", name)
			}
			specs = append(specs, s)
		}
		return BuildSuite(specs)
	})
}

func microParams() Params {
	p := DefaultParams()
	p.Insts = microInsts
	return p
}

var surfaceFix fixture[http.Handler]

// BenchmarkSurfaceLookup measures one /v1/simulate answer served from a
// baked surface, end to end through the HTTP handler (decode, index,
// marshal, ETag). Compare against BenchmarkSimulatorThroughput: the baked
// path replaces a full simulation pass with an index-and-read, so it should
// be several orders of magnitude cheaper per request.
func BenchmarkSurfaceLookup(b *testing.B) {
	suite := smallSuite(b)
	h := surfaceFix.get(b, func() (http.Handler, error) {
		l, err := NewLab(suite, microParams())
		if err != nil {
			return nil, err
		}
		l.SetObs(NewRegistry())
		d, err := BakeSurface(context.Background(), l)
		if err != nil {
			return nil, err
		}
		enc, err := EncodeSurface(d)
		if err != nil {
			return nil, err
		}
		sf, err := DecodeSurface(enc)
		if err != nil {
			return nil, err
		}
		srv, err := NewServer(l, ServerConfig{Surface: sf, AccessLog: io.Discard})
		if err != nil {
			return nil, err
		}
		return srv.Handler(), nil
	})
	body := []byte(`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkAblationSuite runs the extension studies end to end on a fresh
// lab per iteration — result memos cold every time — so the live/replay
// pair measures the trace tier's wall-time win on the real ablation
// workload. The replay variant shares one bounded event-trace store across
// iterations, the way the stability study and a long-running server do:
// the tier's design point is capture once, replay many, so its steady
// state is a warm store (capture and plan compilation run once during
// setup, outside the measured window).
func BenchmarkAblationSuite(b *testing.B) {
	b.Run("live", func(b *testing.B) { benchAblationSuite(b, false) })
	b.Run("replay", func(b *testing.B) { benchAblationSuite(b, true) })
}

var ablationStoreFix fixture[*EventStore]

func benchAblationSuite(b *testing.B, replay bool) {
	suite := smallSuite(b)
	var store *EventStore
	if replay {
		store = ablationStoreFix.get(b, func() (*EventStore, error) {
			s := NewEventStore(256 << 20)
			return s, ablationPass(suite, s)
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ablationPass(suite, store); err != nil {
			b.Fatal(err)
		}
	}
}

// ablationPass runs the extension studies once on a fresh lab whose only
// trace store is store (nil: every pass live).
func ablationPass(suite *Suite, store *EventStore) error {
	p := microParams()
	p.TraceBudgetBytes = -1
	l, err := NewLab(suite, p)
	if err != nil {
		return err
	}
	l.SetTraceStore(store)
	l.SetObs(NewRegistry())
	if err := l.Prewarm(); err != nil {
		return err
	}
	if _, err := l.AssocStudy(8); err != nil {
		return err
	}
	if _, err := l.BlockSizeStudy(8); err != nil {
		return err
	}
	if _, err := l.WritePolicyStudy(10); err != nil {
		return err
	}
	if _, err := l.BTBSizeStudy([]int{64, 256, 1024}); err != nil {
		return err
	}
	if _, err := l.ProfileStudy(); err != nil {
		return err
	}
	_, err = l.QuantumStudy(8, 10, []int64{2_000, 20_000, 100_000})
	return err
}

// BenchmarkCoordinatorFanout measures a coordinator fanning /v1/best over
// 1, 2, and 4 in-process backend shards. Each iteration asks for a fresh
// l2_time_ns, which misses every result cache on the path; the simulation
// passes themselves are l2-independent and prewarmed during setup, so the
// measured op is the distributed sub-range sweep — fan-out, per-point
// recompute on each shard, canonical-order merge. The shards share this
// host's GOMAXPROCS: with cores to spare the ladder shows the sweep
// splitting across the fleet, and at GOMAXPROCS=1 it isolates the
// coordinator's pure fan-out overhead (read it against the gomaxprocs of
// BENCH_sim.json).
func BenchmarkCoordinatorFanout(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { benchCoordinatorFanout(b, shards) })
	}
}

// fanoutRig is one coordinator over its backend shards. The shard
// servers live as long as the test binary. seq outlives each benchmark
// call, so re-runs at a larger b.N never repeat an l2_time_ns and sneak a
// coordinator cache hit into the timings.
type fanoutRig struct {
	h   http.Handler
	seq int64
}

func (r *fanoutRig) post(body string) (int, string) {
	req := httptest.NewRequest("POST", "/v1/best", strings.NewReader(body))
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

var fanoutFix sync.Map // shard count -> *fixture[*fanoutRig]

func benchCoordinatorFanout(b *testing.B, shards int) {
	suite := smallSuite(b)
	fx, _ := fanoutFix.LoadOrStore(shards, new(fixture[*fanoutRig]))
	rig := fx.(*fixture[*fanoutRig]).get(b, func() (*fanoutRig, error) {
		p := microParams()
		var urls []string
		for i := 0; i < shards; i++ {
			l, err := NewLab(suite, p)
			if err != nil {
				return nil, err
			}
			l.SetObs(NewRegistry())
			srv, err := NewServer(l, ServerConfig{AccessLog: io.Discard})
			if err != nil {
				return nil, err
			}
			urls = append(urls, httptest.NewServer(srv.Handler()).URL)
		}
		coord, err := NewCoordinator(CoordinatorConfig{
			Shards:    urls,
			Params:    p,
			AccessLog: io.Discard,
			// A hedge firing mid-iteration would double a shard's work and
			// measure the policy, not the fan-out.
			HedgeAfter: time.Minute,
		})
		if err != nil {
			return nil, err
		}
		rig := &fanoutRig{h: coord.Handler()}
		// The first full-space fan-out warms every (b, scheme) pass each
		// shard's deterministic sub-range needs.
		if code, body := rig.post(`{"loads":"dynamic","l2_time_ns":34.5}`); code != 200 {
			return nil, fmt.Errorf("coordinator warmup (%d shards): status %d: %s", shards, code, body)
		}
		return rig, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.seq++
		body := fmt.Sprintf(`{"loads":"dynamic","l2_time_ns":%.6f}`, 35+float64(rig.seq)*1e-6)
		if code, rb := rig.post(body); code != 200 {
			b.Fatalf("status %d: %s", code, rb)
		}
	}
}
