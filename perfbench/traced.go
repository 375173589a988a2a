package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pipecache/internal/cache"
	"pipecache/internal/core"
	"pipecache/internal/cpisim"
	"pipecache/internal/interp"
	"pipecache/internal/server"
)

// The traced pass measures each layer by timing calls into its public
// functions from here and by reading the deltas of the program's own obs
// counters. It runs the same sections whatever the workload, so every
// traced run reports every per-layer metric; the end-to-end numbers come
// from untraced runs only.

// tracer collects the per-layer metrics and the ops the pass attempted.
type tracer struct {
	metrics map[string]metric

	mu                sync.Mutex // guards the op counts: callers check concurrently
	attempted, failed int64
}

func (t *tracer) set(name string, v float64) {
	for _, m := range layerMetrics {
		if m.name == name {
			t.metrics[name] = metric{v, m.unit}
			return
		}
	}
	panic("perfbench: undeclared layer metric " + name)
}

// check counts one checked op and reports a failure.
func (t *tracer) check(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		warnf("traced %s: %v", what, err)
	}
}

// timeEach returns the median duration of n calls of f.
func timeEach(n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

func runTraced(seed uint64, dur time.Duration) (*result, error) {
	t := &tracer{metrics: map[string]metric{}}
	start := time.Now()
	suite, err := buildSuite()
	if err != nil {
		return nil, err
	}
	t.set("gen.build_suite_ms", ms(time.Since(start)))
	traceInterp(t, suite)
	lab, err := traceColdBest(t, suite)
	if err != nil {
		return nil, err
	}
	if err := traceAssoc(t, lab); err != nil {
		return nil, err
	}
	// The traffic sections share what is left of the phase, within bounds
	// that keep their sample counts useful and the run short.
	phase := min(max(dur/8, time.Second), 3*time.Second)
	if err := traceServeMix(t, seed, phase); err != nil {
		return nil, err
	}
	if err := traceFanout(t, seed, phase); err != nil {
		return nil, err
	}
	for _, m := range layerMetrics {
		if _, ok := t.metrics[m.name]; !ok {
			return nil, fmt.Errorf("traced pass did not measure %s", m.name)
		}
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.metrics}, nil
}

// traceInterp runs every benchmark's interpreter into a discarding sink.
func traceInterp(t *tracer, suite *core.Suite) {
	var insts int64
	discard := interp.EventSinkFunc(func([]interp.Event) {})
	buf := make([]interp.Event, 0, 4096)
	start := time.Now()
	for _, w := range suite.Workloads() {
		it, err := interp.New(w.Prog, w.Seed)
		t.check("interp.New "+w.Prog.Name, err)
		if err != nil {
			continue
		}
		insts += it.RunEvents(benchInsts, buf, discard)
	}
	t.set("interp.minsts_per_s", float64(insts)/time.Since(start).Seconds()/1e6)
}

// traceColdBest splits one cold /v1/best into the public calls its handler
// makes, run back to back on a fresh lab: decode, key, the trace capture,
// three replays, the TPI search on the memoized passes, and marshal. It
// then times whole cold ops over HTTP, untraced and through a timing
// handler, and attributes what the spans do not cover. It returns the
// decomposition's lab, whose trace is captured.
func traceColdBest(t *tracer, suite *core.Suite) (*core.Lab, error) {
	ctx := context.Background()
	lab, reg, err := newLab(suite)
	if err != nil {
		return nil, err
	}
	var req server.BestRequest
	decode := timeEach(201, func() { req, err = server.DecodeBestRequest(bytes.NewReader([]byte("{}")), lab.P) })
	if err != nil {
		return nil, err
	}
	key := timeEach(201, func() { server.RequestKey("best", req) })

	start := time.Now()
	if _, err := lab.StaticPassContext(ctx, 0); err != nil {
		return nil, err
	}
	capture := time.Since(start)
	t.set("trace.capture_ms", ms(capture))
	t.set("trace.store_bytes", reg.Snapshot().Gauges["trace.store.bytes"])

	var replays, cpus, mips, probes []float64
	for b := 1; b <= 3; b++ {
		before, cpu0, start := counters(reg), cpuTime(), time.Now()
		if _, err := lab.StaticPassContext(ctx, b); err != nil {
			return nil, err
		}
		d, cpu, after := time.Since(start), cpuTime()-cpu0, counters(reg)
		replays = append(replays, ms(d))
		cpus = append(cpus, ms(cpu))
		mips = append(mips, float64(delta(after, before, "interp.insts_retired"))/d.Seconds()/1e6)
		n := float64(sumCounters(after, "cache.", ".probes") - sumCounters(before, "cache.", ".probes"))
		probes = append(probes, n)
		t.set(fmt.Sprintf("coldbest.replay%d_ms", b), ms(d))
	}
	t.set("cpisim.replay_ms", median(replays))
	t.set("cpisim.replay_cpu_ms", median(cpus))
	t.set("cpisim.replay_minsts_per_s", median(mips))
	t.set("cache.probes_per_pass", median(probes))
	t.set("cache.replay_ns_per_probe", median(replays)*1e6/median(probes))

	var opt *core.Optimum
	math := timeEach(3, func() {
		opt, err = lab.BestDesignContext(ctx, lab.P.L2TimeNs, cpisim.LoadStatic, false)
	})
	if err != nil {
		return nil, err
	}
	t.set("core.best_math_ms", ms(math))
	b := opt.Best
	out := &server.BestResponse{Request: req, Evaluated: opt.Evaluated, Best: server.SimPoint{
		B: b.B, L: b.L, ISizeKW: b.ISizeKW, DSizeKW: b.DSizeKW, Loads: b.LoadScheme.String(),
		TCPUNs: b.TCPUNs, PenaltyCycles: b.PenCycles, CPI: b.CPI, TPINs: b.TPINs,
	}}
	var body []byte
	marshal := timeEach(201, func() { body, err = json.Marshal(out) })
	if err != nil {
		return nil, err
	}

	// Whole cold ops over HTTP: untraced, then through a timing handler.
	var (
		plain, wrapped, handlers []float64
		mu                       sync.Mutex // guards handlers, appended on the server's goroutine
	)
	timing := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			mu.Lock()
			handlers = append(handlers, ms(time.Since(start)))
			mu.Unlock()
		})
	}
	for i := 0; i < 6; i++ {
		wrap := timing
		if i%2 == 0 {
			wrap = nil
		}
		resp, lat, after, err := coldOp(suite, wrap)
		if err == nil && !bytes.Equal(resp.body, append(body, '\n')) {
			err = fmt.Errorf("cold /v1/best body differs from the decomposition's")
		}
		t.check("cold /v1/best", err)
		if err != nil {
			continue
		}
		if wrap == nil {
			plain = append(plain, ms(lat))
		} else {
			wrapped = append(wrapped, ms(lat))
		}
		if i == 0 {
			t.set("core.passes_run", float64(after["lab.passes_run"]))
			t.set("core.pass_replays", float64(after["lab.pass_replays"]))
			req := after["lab.pass_requests"]
			t.set("core.memo_hit_ratio", float64(after["lab.pass_memo_hits"])/float64(max(req, 1)))
		}
	}
	spans := map[string]time.Duration{
		"coldbest.decode_ms": decode, "coldbest.key_ms": key, "coldbest.capture_ms": capture,
		"coldbest.tpi_math_ms": math, "coldbest.marshal_ms": marshal,
	}
	var covered float64
	for _, r := range replays {
		covered += r
	}
	for name, d := range spans {
		t.set(name, ms(d))
		covered += ms(d)
	}
	op := median(plain)
	t.set("coldbest.op_ms", op)
	t.set("coldbest.unattributed_ms", op-covered)
	mu.Lock()
	t.set("coldbest.handler_ms", median(handlers))
	mu.Unlock()
	t.set("coldbest.trace_overhead_ms", median(wrapped)-op)
	return lab, nil
}

// traceAssoc times single set-associative replay passes: the FIFO pass of
// PolicyStudy(4, 2), replayed from the captured trace.
func traceAssoc(t *tracer, lab *core.Lab) error {
	var bank []cache.Config
	for _, s := range lab.P.SizesKW {
		bank = append(bank, cache.Config{SizeKW: s, BlockWords: lab.P.BlockWords, Assoc: 4, WriteBack: true, Policy: cache.PolicyFIFO})
	}
	var err error
	d := timeEach(3, func() {
		if err == nil {
			_, err = lab.RunPass(cpisim.Config{BranchSlots: 2, ICaches: bank, DCaches: bank})
		}
	})
	t.check("set-associative replay", err)
	t.set("cpisim.assoc_replay_ms", ms(d))
	return err
}

// handlerTimes records the handler duration of each request carrying a
// sequence header.
type handlerTimes struct {
	mu  sync.Mutex
	dur map[string]time.Duration
}

const seqHeader = "X-Perfbench-Seq"

func (ht *handlerTimes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq := r.Header.Get(seqHeader)
		if seq == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		ht.mu.Lock()
		ht.dur[seq] = d
		ht.mu.Unlock()
	})
}

func (ht *handlerTimes) get(seq string) (time.Duration, bool) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	d, ok := ht.dur[seq]
	return d, ok
}

// traceServeMix runs serve_mix traffic untraced, then traced through a
// handler-timing wrapper, and times the serving layers' public calls over
// the same generated requests.
func traceServeMix(t *tracer, seed uint64, phase time.Duration) error {
	ht := &handlerTimes{dur: map[string]time.Duration{}}
	s, err := setupServeMix(seed, ht.wrap)
	if err != nil {
		return err
	}
	defer s.close()
	drive := func() []float64 {
		var (
			mu   sync.Mutex
			lats []float64
			wg   sync.WaitGroup
		)
		start := time.Now()
		for c := range s.gens {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Since(start) < phase {
					lat, err := s.op(c)
					t.check("serve_mix op", err)
					if err != nil {
						return
					}
					mu.Lock()
					lats = append(lats, us(lat))
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return lats
	}
	untraced := drive()

	// The reply carries the tier; the wrapper's handler time is joined by
	// sequence number once the phase is over and every handler has returned.
	type reply struct {
		seq  string
		tier string
		lat  time.Duration
	}
	var (
		seq     atomic.Int64
		mu      sync.Mutex
		replies []reply
	)
	s.header = func() http.Header {
		return http.Header{seqHeader: {strconv.FormatInt(seq.Add(1), 10)}}
	}
	s.onReply = func(_ mixRequest, hdr http.Header, resp response, lat time.Duration) {
		mu.Lock()
		replies = append(replies, reply{hdr.Get(seqHeader), resp.xcache, lat})
		mu.Unlock()
	}
	before := counters(s.reg)
	traced := drive()
	after := counters(s.reg)
	s.header, s.onReply = nil, nil

	tiers := map[string][]float64{}
	var network []float64
	for _, r := range replies {
		d, ok := ht.get(r.seq)
		if !ok {
			continue
		}
		tier := r.tier
		if tier == string(server.OutcomeShared) {
			tier = string(server.OutcomeHit) // answered from a flight: a result-cache hit
		}
		tiers[tier] = append(tiers[tier], us(d))
		network = append(network, us(r.lat-d))
	}
	total := 0
	for _, ds := range tiers {
		total += len(ds)
	}
	for _, tier := range []string{"surface", "overlay", "hit", "miss"} {
		t.set("server.handler_us."+tier, median(tiers[tier]))
		t.set("server.tier."+tier+"_share", float64(len(tiers[tier]))/float64(max(total, 1)))
	}
	t.set("server.transport_us", median(network))
	t.set("server.trace_overhead_us", median(traced)-median(untraced))
	t.set("surface.hits", float64(delta(after, before, "surface.hits")))
	t.set("surface.overlay_hits", float64(delta(after, before, "surface.overlay_hits")))

	// Public calls of the serving layers over one generated stream.
	g := newServeMixGen(seed, 0, s.lab.P.SizesKW)
	var decode, key, marshal, eval []float64
	ctx := context.Background()
	for i := 0; i < 2000; i++ {
		mr := g.next()
		var req server.DesignRequest
		d := timeEach(1, func() { req, err = server.DecodeDesignRequest(bytes.NewReader(mr.body), s.lab.P) })
		if err != nil {
			return err
		}
		decode = append(decode, us(d))
		key = append(key, us(timeEach(1, func() { server.RequestKey("simulate", req) })))
		if mr.class != classOffGrid {
			continue
		}
		scheme := cpisim.LoadStatic
		if req.Loads == "dynamic" {
			scheme = cpisim.LoadDynamic
		}
		var pt core.TPIPoint
		var bd core.Breakdown
		eval = append(eval, us(timeEach(1, func() {
			pt, bd, err = s.lab.EvalPointContext(ctx, req.B, req.L, req.ISizeKW, req.DSizeKW, scheme, req.L2TimeNs)
		})))
		if err != nil {
			return err
		}
		resp := &server.SimulateResponse{Request: req, Point: server.SimPoint{
			B: pt.B, L: pt.L, ISizeKW: pt.ISizeKW, DSizeKW: pt.DSizeKW, Loads: pt.LoadScheme.String(),
			TCPUNs: pt.TCPUNs, PenaltyCycles: pt.PenCycles, CPI: pt.CPI, TPINs: pt.TPINs,
		}, Breakdown: server.CPIBreakdown{
			Base: bd.Base, BranchStall: bd.BranchStall, LoadStall: bd.LoadStall, IMiss: bd.IMiss, DMiss: bd.DMiss,
		}}
		marshal = append(marshal, us(timeEach(1, func() { json.Marshal(resp) })))
	}
	t.set("server.decode_us", median(decode))
	t.set("server.key_us", median(key))
	t.set("server.marshal_us", median(marshal))
	t.set("core.eval_point_us", median(eval))

	const lookups = 100_000
	n := s.sf.NumPoints()
	start := time.Now()
	for i := 0; i < lookups; i++ {
		s.sf.Point(i % n)
	}
	t.set("surface.lookup_us", us(time.Since(start))/lookups)

	failed, invalid := s.finish()
	for i := 0; i < failed; i++ {
		t.check("serve_mix reply check", fmt.Errorf("sampled reply differs from the reference"))
	}
	if invalid != nil {
		t.check("serve_mix validity", invalid)
	}
	return nil
}

// shardLog records the interval of every /v1/sweep-range request a
// backend served.
type shardLog struct {
	mu   sync.Mutex
	reqs []interval
}

type interval struct{ start, end time.Time }

func (l *shardLog) wrap(_ int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/sweep-range" {
			l.mu.Lock()
			l.reqs = append(l.reqs, interval{start, time.Now()})
			l.mu.Unlock()
		}
	})
}

// traceFanout runs fanout ops with every backend handler timed, splits
// each op into its slowest shard sub-request and the coordinator's own
// time, and times the range evaluation each shard performs.
func traceFanout(t *tracer, seed uint64, phase time.Duration) error {
	sl := &shardLog{}
	f, err := setupFanout(seed, sl.wrap)
	if err != nil {
		return err
	}
	defer f.close()
	hedged := counters(f.coord.Registry())["cluster.hedge.fired"]
	var ops []interval
	start := time.Now()
	for time.Since(start) < phase || len(ops) < 2*minTail {
		t0 := time.Now()
		_, err := f.op(0)
		t.check("fanout op", err)
		if err != nil {
			break
		}
		ops = append(ops, interval{t0, time.Now()})
	}
	var self, shard []float64
	subs := 0
	sl.mu.Lock()
	for _, r := range sl.reqs {
		shard = append(shard, ms(r.end.Sub(r.start)))
	}
	for _, op := range ops {
		var slowest time.Duration
		for _, r := range sl.reqs {
			if !r.start.Before(op.start) && !r.end.After(op.end) {
				subs++
				slowest = max(slowest, r.end.Sub(r.start))
			}
		}
		self = append(self, ms(op.end.Sub(op.start)-slowest))
	}
	sl.mu.Unlock()
	t.set("cluster.shard_request_ms", median(shard))
	t.set("cluster.self_ms", median(self))
	t.set("cluster.subrequests_per_op", float64(subs)/float64(max(len(ops), 1)))
	t.set("cluster.hedge_fired", float64(counters(f.coord.Registry())["cluster.hedge.fired"]-hedged))

	lab := f.labs[0]
	half := len(core.DesignSpace(lab.P)) / 2
	g := newFanoutGen(seed + 1)
	d := timeEach(3, func() {
		l2, _ := g.next()
		if err == nil {
			_, err = lab.EvalDesignRangeContext(context.Background(), l2, 0, half)
		}
	})
	if err != nil {
		return err
	}
	t.set("core.range_eval_ms", ms(d))

	failed, invalid := f.finish()
	for i := 0; i < failed; i++ {
		t.check("fanout reply check", fmt.Errorf("sampled reply differs from the single-node reference"))
	}
	if invalid != nil {
		t.check("fanout validity", invalid)
	}
	return nil
}
