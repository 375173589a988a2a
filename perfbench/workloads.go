package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pipecache/internal/cluster"
	"pipecache/internal/core"
	"pipecache/internal/obs"
	"pipecache/internal/server"
	"pipecache/internal/surface"
)

// instance is one set-up workload: op performs one closed-loop operation
// for a client and checks its output, finish runs the checks that need the
// whole phase, and close releases everything set-up built.
type instance interface {
	op(c int) (time.Duration, error)
	// finish returns the number of ops whose deferred output check failed
	// and, separately, why the phase is invalid: cold work done where the
	// workload promises none (or missing where it promises some).
	finish() (failed int, invalid error)
	close()
}

// workload is one traffic mix.
type workload struct {
	name string
	// clients is the number of closed-loop callers.
	clients int
	// minOps extends the timed phase until this many ops completed, so
	// the median always has minTail samples beyond it.
	minOps int
	// tails are the percentiles reported beyond the median.
	tails []float64
	// workers names the worker counts the run uses besides the callers;
	// any above nproc marks the run as not comparable.
	workers func() map[string]int
	setup   func(seed uint64) (instance, error)
}

// gomaxprocs is the default size of the lab sweep pool, the sharded replay
// and the server worker pool.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

var workloads = []workload{
	{
		name: "cold_best", clients: 1, minOps: 2 * minTail,
		workers: func() map[string]int {
			return map[string]int{"sweep_workers": gomaxprocs(), "replay_shards": gomaxprocs(), "server_workers": gomaxprocs()}
		},
		setup: setupColdBest,
	},
	{
		name: "serve_mix", clients: serveMixClients, minOps: 100 * minTail, tails: []float64{0.99},
		workers: func() map[string]int { return map[string]int{"server_workers": gomaxprocs()} },
		setup: func(seed uint64) (instance, error) {
			s, err := setupServeMix(seed, nil)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	},
	{
		name: "fanout", clients: 1, minOps: 10 * minTail, tails: []float64{0.9},
		workers: func() map[string]int {
			return map[string]int{"shards": fanoutShards, "sweep_workers": gomaxprocs(), "server_workers": gomaxprocs()}
		},
		setup: func(seed uint64) (instance, error) {
			f, err := setupFanout(seed, nil)
			if err != nil {
				return nil, err
			}
			return f, nil
		},
	},
	{
		name: "ablate_assoc", clients: 1, minOps: 2 * minTail,
		workers: func() map[string]int {
			return map[string]int{"sweep_workers": gomaxprocs(), "replay_shards": gomaxprocs()}
		},
		setup: setupAblateAssoc,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// firstErr keeps the first of several concurrently reported errors.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// ---- cold_best -------------------------------------------------------------

// coldBest answers one POST /v1/best {} per op from a fresh lab and server:
// empty pass memo, empty trace store, so the op is one trace capture and
// three replays plus the TPI search.
type coldBest struct {
	suite   *core.Suite
	ref     response
	digest  string
	invalid firstErr
}

const bestPath = "/v1/best"

func setupColdBest(seed uint64) (instance, error) {
	suite, err := buildSuite()
	if err != nil {
		return nil, err
	}
	// Reference reply from a separate lab, answered in-process.
	lab, reg, err := newLab(suite)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(lab, server.Config{AccessLog: io.Discard})
	if err != nil {
		return nil, err
	}
	ref := record(srv.Handler(), bestPath, []byte("{}"))
	srv.Close()
	if ref.status != http.StatusOK {
		return nil, fmt.Errorf("cold_best: reference /v1/best answered %d: %s", ref.status, ref.body)
	}
	c := &coldBest{suite: suite, ref: ref, digest: simDigest(counters(reg), nil)}
	// Warm-up op, discarded: translations are memoized on the shared
	// programs, so the first op on a suite costs more than the rest.
	if _, err := c.op(0); err != nil {
		return nil, fmt.Errorf("cold_best warm-up: %w", err)
	}
	if err := c.invalid.get(); err != nil {
		return nil, fmt.Errorf("cold_best warm-up: %w", err)
	}
	return c, nil
}

func (c *coldBest) op(int) (time.Duration, error) {
	resp, lat, after, err := coldOp(c.suite, nil)
	if err != nil {
		return 0, err
	}
	if why := sameReply(resp, c.ref); why != "" {
		return 0, errors.New("cold_best: " + why)
	}
	if d := simDigest(after, nil); d != c.digest {
		return 0, fmt.Errorf("cold_best: simulated cache/BTB counters digest %s, reference %s", d, c.digest)
	}
	if run, rep := after["lab.passes_run"], after["lab.pass_replays"]; run != 4 || rep != 3 {
		c.invalid.set(fmt.Errorf("cold_best op ran %d passes with %d replays, want 4 and 3 (one capture)", run, rep))
	}
	return lat, nil
}

// coldOp builds a fresh lab and server, serves it on loopback (through
// wrap, when non-nil) and sends one POST /v1/best {}. It returns the reply,
// its latency and the lab's counters afterwards.
func coldOp(suite *core.Suite, wrap func(http.Handler) http.Handler) (response, time.Duration, map[string]int64, error) {
	lab, reg, err := newLab(suite)
	if err != nil {
		return response{}, 0, nil, err
	}
	srv, err := server.New(lab, server.Config{AccessLog: io.Discard})
	if err != nil {
		return response{}, 0, nil, err
	}
	defer srv.Close()
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	lb, err := serveHTTP(h)
	if err != nil {
		return response{}, 0, nil, err
	}
	cl := newClient()
	resp, lat, err := cl.post(lb.url+bestPath, []byte("{}"), nil)
	cl.close()
	if serr := lb.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return response{}, 0, nil, err
	}
	return resp, lat, counters(reg), nil
}

func (c *coldBest) finish() (int, error) { return 0, c.invalid.get() }

func (c *coldBest) close() {}

// ---- serve_mix -------------------------------------------------------------

// serveMix drives /v1/simulate traffic at a prewarmed, surface-backed server
// (serve -prewarm -surface): surface hits, off-grid points answered by the
// overlay, the result cache or live TPI math over memoized passes, and a
// FIFO slice that bypasses the surface.
type serveMix struct {
	lab     *core.Lab
	reg     *obs.Registry
	srv     *server.Server
	ref     *server.Server // surface-less, over the same lab
	sf      *surface.Surface
	lb      *loopback
	gens    []*serveMixGen
	clients []*client
	before  map[string]int64

	// header and onReply, when set, add request headers and see every
	// reply (the traced run's tier split).
	header  func() http.Header
	onReply func(req mixRequest, hdr http.Header, resp response, lat time.Duration)

	mu      sync.Mutex
	opsSeen []int
	samples []sample
}

// sample is one reply kept for a check after the timed phase.
type sample struct {
	req  []byte
	resp response
}

const (
	serveMixClients = 2
	simulatePath    = "/v1/simulate"
	// Every sampleEvery-th reply of a caller is checked against the
	// reference, up to maxSamples in all.
	sampleEvery = 16
	maxSamples  = 2000
)

// setupServeMix builds the serve_mix server; wrap, when non-nil, wraps the
// served handler (the traced run times handlers through it).
func setupServeMix(seed uint64, wrap func(http.Handler) http.Handler) (*serveMix, error) {
	suite, err := buildSuite()
	if err != nil {
		return nil, err
	}
	lab, reg, err := newLab(suite)
	if err != nil {
		return nil, err
	}
	if err := lab.Prewarm(); err != nil {
		return nil, err
	}
	data, err := surface.Bake(context.Background(), lab)
	if err != nil {
		return nil, err
	}
	enc, err := surface.Encode(data)
	if err != nil {
		return nil, err
	}
	sf, err := surface.Decode(enc)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(lab, server.Config{Surface: sf, AccessLog: io.Discard})
	if err != nil {
		return nil, err
	}
	ref, err := server.New(lab, server.Config{AccessLog: io.Discard})
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	lb, err := serveHTTP(h)
	if err != nil {
		srv.Close()
		ref.Close()
		return nil, err
	}
	s := &serveMix{lab: lab, reg: reg, srv: srv, ref: ref, sf: sf, lb: lb}
	// Warm the FIFO passes the way an operator would: one /v1/best.
	cl := newClient()
	resp, _, err := cl.post(lb.url+bestPath, []byte(`{"policy":"fifo"}`), nil)
	cl.close()
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("fifo warm-up /v1/best answered %d", resp.status)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	for c := 0; c < serveMixClients; c++ {
		s.gens = append(s.gens, newServeMixGen(seed, c, lab.P.SizesKW))
		s.clients = append(s.clients, newClient())
	}
	s.opsSeen = make([]int, len(s.gens))
	s.before = counters(reg)
	return s, nil
}

func (s *serveMix) op(c int) (time.Duration, error) {
	req := s.gens[c].next()
	var hdr http.Header
	if s.header != nil {
		hdr = s.header()
	}
	resp, lat, err := s.clients[c].post(s.lb.url+simulatePath, req.body, hdr)
	if err != nil {
		return 0, err
	}
	if resp.status != http.StatusOK {
		return 0, fmt.Errorf("serve_mix: status %d: %s", resp.status, resp.body)
	}
	if s.onReply != nil {
		s.onReply(req, hdr, resp, lat)
	}
	s.mu.Lock()
	if s.opsSeen[c]%sampleEvery == 0 && len(s.samples) < maxSamples {
		s.samples = append(s.samples, sample{req: req.body, resp: resp})
	}
	s.opsSeen[c]++
	s.mu.Unlock()
	return lat, nil
}

func (s *serveMix) finish() (int, error) {
	var invalid error
	if n := passesRun(counters(s.reg), s.before); n != 0 {
		invalid = fmt.Errorf("serve_mix ran %d simulation passes in the timed phase, want 0", n)
	}
	failed := 0
	for _, sm := range s.samples {
		if why := sameReply(sm.resp, record(s.ref.Handler(), simulatePath, sm.req)); why != "" {
			failed++
			warnf("serve_mix check %s: %s", sm.req, why)
		}
	}
	return failed, invalid
}

func (s *serveMix) close() {
	for _, cl := range s.clients {
		cl.close()
	}
	s.lb.stop()
	s.srv.Close()
	s.ref.Close()
}

// passesRun counts the simulation passes (memoized and ad-hoc) run between
// two snapshots.
func passesRun(after, before map[string]int64) int64 {
	return delta(after, before, "lab.passes_run") + delta(after, before, "lab.adhoc_passes_run")
}

// ---- fanout ----------------------------------------------------------------

// fanout sends /v1/best at a fresh miss-service time to a coordinator over
// two prewarmed backends; every op misses the merged cache and fans out
// /v1/sweep-range to both shards.
type fanout struct {
	labs     []*core.Lab
	regs     []*obs.Registry
	backends []*server.Server
	shardLBs []*loopback
	coord    *cluster.Coordinator
	coordLB  *loopback
	ref      *server.Server // single node over labs[0]
	gen      *fanoutGen
	cl       *client
	before   []map[string]int64

	ops     int
	samples []sample
}

const (
	fanoutShards = 2
	// Every fanoutSampleEvery-th reply is checked against single-node.
	fanoutSampleEvery = 4
)

// setupFanout builds the two backends and the coordinator; wrapShard, when
// non-nil, wraps backend i's handler.
func setupFanout(seed uint64, wrapShard func(i int, h http.Handler) http.Handler) (_ *fanout, err error) {
	suite, err := buildSuite()
	if err != nil {
		return nil, err
	}
	f := &fanout{gen: newFanoutGen(seed), cl: newClient()}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var urls []string
	for i := 0; i < fanoutShards; i++ {
		lab, reg, err := newLab(suite)
		if err != nil {
			return nil, err
		}
		if err := lab.Prewarm(); err != nil {
			return nil, err
		}
		srv, err := server.New(lab, server.Config{AccessLog: io.Discard})
		if err != nil {
			return nil, err
		}
		f.labs, f.regs, f.backends = append(f.labs, lab), append(f.regs, reg), append(f.backends, srv)
		var h http.Handler = srv.Handler()
		if wrapShard != nil {
			h = wrapShard(i, h)
		}
		lb, err := serveHTTP(h)
		if err != nil {
			return nil, err
		}
		f.shardLBs = append(f.shardLBs, lb)
		urls = append(urls, lb.url)
	}
	f.ref, err = server.New(f.labs[0], server.Config{AccessLog: io.Discard})
	if err != nil {
		return nil, err
	}
	f.coord, err = cluster.New(cluster.Config{Shards: urls, Params: benchParams(), AccessLog: io.Discard})
	if err != nil {
		return nil, err
	}
	f.coordLB, err = serveWith(func(ctx context.Context, ln net.Listener) error { return f.coord.Serve(ctx, ln) })
	if err != nil {
		return nil, err
	}
	for _, reg := range f.regs {
		f.before = append(f.before, counters(reg))
	}
	return f, nil
}

func (f *fanout) op(int) (time.Duration, error) {
	_, body := f.gen.next()
	resp, lat, err := f.cl.post(f.coordLB.url+bestPath, body, nil)
	if err != nil {
		return 0, err
	}
	if resp.status != http.StatusOK {
		return 0, fmt.Errorf("fanout: status %d: %s", resp.status, resp.body)
	}
	if f.ops%fanoutSampleEvery == 0 && len(f.samples) < maxSamples {
		f.samples = append(f.samples, sample{req: body, resp: resp})
	}
	f.ops++
	return lat, nil
}

func (f *fanout) finish() (int, error) {
	var invalid error
	for i, reg := range f.regs {
		if n := passesRun(counters(reg), f.before[i]); n != 0 {
			invalid = fmt.Errorf("fanout backend %d ran %d simulation passes in the timed phase, want 0", i, n)
		}
	}
	failed := 0
	for _, sm := range f.samples {
		if why := sameReply(sm.resp, record(f.ref.Handler(), bestPath, sm.req)); why != "" {
			failed++
			warnf("fanout check %s: %s", sm.req, why)
		}
	}
	return failed, invalid
}

func (f *fanout) close() {
	f.cl.close()
	if f.coordLB != nil {
		f.coordLB.stop()
	}
	for _, lb := range f.shardLBs {
		lb.stop()
	}
	for _, srv := range f.backends {
		srv.Close()
	}
	if f.ref != nil {
		f.ref.Close()
	}
}

// ---- ablate_assoc ----------------------------------------------------------

// ablateAssoc runs AssocStudy(8) + PolicyStudy(4, 2) per op on a lab whose
// trace was captured in set-up: set-associative LRU/FIFO/Tree-PLRU banks on
// the sequential replay path, replayed on every call.
type ablateAssoc struct {
	lab     *core.Lab
	reg     *obs.Registry
	out     string // hash of the reference study output
	digest  string
	before  map[string]int64
	invalid firstErr
}

func setupAblateAssoc(uint64) (instance, error) {
	suite, err := buildSuite()
	if err != nil {
		return nil, err
	}
	lab, reg, err := newLab(suite)
	if err != nil {
		return nil, err
	}
	if _, err := lab.StaticPass(0); err != nil { // the trace capture
		return nil, err
	}
	a := &ablateAssoc{lab: lab, reg: reg}
	// The first op is the reference every later op must reproduce.
	before := counters(reg)
	if a.out, err = a.study(); err != nil {
		return nil, err
	}
	a.before = counters(reg)
	a.digest = simDigest(a.before, before)
	return a, nil
}

// study runs the two ablations and hashes their full results.
func (a *ablateAssoc) study() (string, error) {
	as, err := a.lab.AssocStudy(8)
	if err != nil {
		return "", err
	}
	ps, err := a.lab.PolicyStudy(4, 2)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(mustJSON([]any{as, ps}))
	return hex.EncodeToString(sum[:8]), nil
}

func (a *ablateAssoc) op(int) (time.Duration, error) {
	before := counters(a.reg)
	start := time.Now()
	out, err := a.study()
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	if out != a.out {
		return 0, fmt.Errorf("ablate_assoc: study output %s, reference %s", out, a.out)
	}
	after := counters(a.reg)
	if d := simDigest(after, before); d != a.digest {
		return 0, fmt.Errorf("ablate_assoc: simulated cache/BTB counters digest %s, reference %s", d, a.digest)
	}
	if run, rep := delta(after, before, "lab.adhoc_passes_run"), delta(after, before, "lab.pass_replays"); run != rep || run == 0 {
		a.invalid.set(fmt.Errorf("ablate_assoc op ran %d ad-hoc passes but replayed %d", run, rep))
	}
	return lat, nil
}

func (a *ablateAssoc) finish() (int, error) {
	if n := delta(counters(a.reg), a.before, "trace.store.misses"); n != 0 {
		return 0, fmt.Errorf("ablate_assoc captured %d traces in the timed phase, want 0", n)
	}
	return 0, a.invalid.get()
}

func (a *ablateAssoc) close() {}
