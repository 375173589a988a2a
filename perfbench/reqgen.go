package main

import (
	"encoding/json"

	"pipecache/internal/server"
)

// heldOutSeed is kept out of every tuning run; a later change that claims
// a gain confirms it on this seed as well as on the seeds it was tuned on.
const heldOutSeed = 20241017

// rng is a splitmix64 stream. Every request the benchmark sends comes from
// one of these, seeded by the --seed argument and a per-client stream
// number, so the program sees only generated inputs and a seed fixes them.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed ^ (stream+1)*0x9E3779B97F4A7C15}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Request classes of the serve_mix traffic.
const (
	classOnGrid  = "on_grid"  // baked point: a surface hit
	classOffGrid = "off_grid" // custom l2_time_ns: overlay, result cache or live TPI math
	classFIFO    = "fifo"     // baked point under a non-default policy: bypasses the surface
)

// offGridL2Ns are the custom miss-service times of off-grid requests. With
// the 1152-point design space they give 4608 distinct keys, 4.5x the
// default overlay bound (1024) and 9x the server's result cache (512), so
// off-grid traffic keeps both tiers churning.
var offGridL2Ns = []float64{40, 45, 50, 55}

// mixRequest is one generated /v1/simulate request.
type mixRequest struct {
	class string
	body  []byte
}

// serveMixGen generates the serve_mix request stream of one client:
// 60% on-grid, 35% off-grid, 5% on-grid FIFO, each over a uniformly drawn
// design point.
type serveMixGen struct {
	r     *rng
	sizes []int
}

func newServeMixGen(seed uint64, client int, sizes []int) *serveMixGen {
	return &serveMixGen{r: newRNG(seed, uint64(client)), sizes: sizes}
}

func (g *serveMixGen) next() mixRequest {
	req := server.DesignRequest{
		B:       g.r.intn(4),
		L:       g.r.intn(4),
		ISizeKW: g.sizes[g.r.intn(len(g.sizes))],
		DSizeKW: g.sizes[g.r.intn(len(g.sizes))],
	}
	if g.r.intn(2) == 1 {
		req.Loads = "dynamic"
	}
	class := classOnGrid
	switch u := g.r.intn(100); {
	case u < 60:
	case u < 95:
		class = classOffGrid
		req.L2TimeNs = offGridL2Ns[g.r.intn(len(offGridL2Ns))]
	default:
		class = classFIFO
		req.Policy = "fifo"
	}
	return mixRequest{class: class, body: mustJSON(req)}
}

// fanoutGen generates the fanout stream: /v1/best at a miss-service time
// never asked before in the run, so every request misses the coordinator's
// merged cache and the shards' result caches.
type fanoutGen struct {
	r    *rng
	seen map[float64]bool
}

func newFanoutGen(seed uint64) *fanoutGen {
	return &fanoutGen{r: newRNG(seed, 1<<32), seen: map[float64]bool{}}
}

// next returns the request body and its l2_time_ns, drawn from [20, 80) ns
// in 1 ps steps and never the lab default (35 ns, the baked value).
func (g *fanoutGen) next() (float64, []byte) {
	for {
		l2 := 20 + float64(g.r.intn(60_000))/1000
		if l2 == 35 || g.seen[l2] {
			continue
		}
		g.seen[l2] = true
		return l2, mustJSON(server.BestRequest{L2TimeNs: l2})
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of scalars always marshal
	}
	return b
}
