package pipecache

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// The BENCH_sim.json writer's flags, passed after -args.
var (
	benchJSONPath = flag.String("benchjson", "", "measure the microbenchmarks and write their BENCH_sim.json summary to this file")
	replayFloor   = flag.Float64("replay-floor", 0, "with -benchjson: fail if BenchmarkTraceReplay falls below this many insts/s; 0 disables the guard")
)

// benchRecord is one benchmark's summary row. Gomaxprocs is recorded only
// on the sharded replay rows, which run at GOMAXPROCS raised to their
// worker count; NsPerProbeConfig is the lane-pack figure of merit — bank
// ns/op normalized by ladder width.
type benchRecord struct {
	Name             string  `json:"name"`
	Iterations       int     `json:"iterations"`
	NsPerOp          float64 `json:"ns_per_op"`
	InstsPerSec      float64 `json:"insts_per_sec,omitempty"`
	Gomaxprocs       int     `json:"gomaxprocs,omitempty"`
	NsPerProbeConfig float64 `json:"ns_per_probe_config,omitempty"`
}

// speedupRecord relates two benchmark rows (baseline ns / against ns).
type speedupRecord struct {
	Name     string  `json:"name"`
	Baseline string  `json:"baseline"`
	Against  string  `json:"against"`
	Speedup  float64 `json:"speedup"`
}

// benchReport is the BENCH_sim.json schema.
type benchReport struct {
	Schema     string          `json:"schema"`
	Go         string          `json:"go"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Insts      int64           `json:"insts"`
	Benchmarks []benchRecord   `json:"benchmarks"`
	Speedups   []speedupRecord `json:"speedups,omitempty"`
}

// TestBenchJSON records the headline microbenchmarks of bench_test.go as
// BENCH_sim.json (make bench-json; CI archives it per commit). It runs the
// same benchmark functions as go test -bench through testing.Benchmark,
// so a JSON row cannot drift from its go test twin; -benchtime sets the
// measurement window. Skipped unless -benchjson names the output file:
//
//	go test -run '^TestBenchJSON$' -benchtime 3s . -args -benchjson BENCH_sim.json -replay-floor 70000000
func TestBenchJSON(t *testing.T) {
	if *benchJSONPath == "" {
		t.Skip("set -benchjson <file> to record BENCH_sim.json")
	}
	rep := benchReport{
		Schema:     "pipecache-bench/v1",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Insts:      microInsts,
	}
	row := func(name string, fn func(b *testing.B)) benchRecord {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			t.Fatalf("%s failed", name)
		}
		rec := benchRecord{
			Name:             name,
			Iterations:       r.N,
			NsPerOp:          float64(r.T.Nanoseconds()) / float64(r.N),
			InstsPerSec:      r.Extra["insts/s"],
			NsPerProbeConfig: r.Extra["ns/probe/config"],
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
		if rec.InstsPerSec > 0 {
			t.Logf("%-36s %14.0f ns/op %14.0f insts/s", rec.Name, rec.NsPerOp, rec.InstsPerSec)
		} else {
			t.Logf("%-36s %14.0f ns/op", rec.Name, rec.NsPerOp)
		}
		return rec
	}
	speedup := func(name string, baseline, against benchRecord) {
		rep.Speedups = append(rep.Speedups, speedupRecord{
			Name:     name,
			Baseline: baseline.Name,
			Against:  against.Name,
			Speedup:  baseline.NsPerOp / against.NsPerOp,
		})
	}

	live := row("BenchmarkSimulatorThroughput", BenchmarkSimulatorThroughput)
	row("BenchmarkSimInstrumented", BenchmarkSimInstrumented)
	replayed := row("BenchmarkTraceReplay", BenchmarkTraceReplay)
	speedup("trace_replay_vs_live_pass", live, replayed)

	// Sharded single-pass replay with GOMAXPROCS raised to the worker
	// count, so the shards may run in parallel; the sequential row above
	// keeps the base value. On a host with fewer cores the raise grants no
	// extra cores and the split shows pure merge overhead.
	base := runtime.GOMAXPROCS(0)
	for _, workers := range []int{2, 4} {
		runtime.GOMAXPROCS(max(base, workers))
		rec := row(fmt.Sprintf("BenchmarkShardedReplay/workers=%d", workers), func(b *testing.B) { benchReplay(b, workers) })
		rep.Benchmarks[len(rep.Benchmarks)-1].Gomaxprocs = runtime.GOMAXPROCS(0)
		runtime.GOMAXPROCS(base)
		speedup(fmt.Sprintf("sharded_replay_%d_workers_vs_sequential", workers), replayed, rec)
	}

	speedup("surface_lookup_vs_live_pass", live, row("BenchmarkSurfaceLookup", BenchmarkSurfaceLookup))
	ablLive := row("BenchmarkAblationSuite/live", func(b *testing.B) { benchAblationSuite(b, false) })
	ablReplay := row("BenchmarkAblationSuite/replay", func(b *testing.B) { benchAblationSuite(b, true) })
	speedup("ablation_suite_replay_vs_live", ablLive, ablReplay)
	row("BenchmarkPolicyStudy", BenchmarkPolicyStudy)
	row("BenchmarkCacheAccess/direct", func(b *testing.B) { benchCacheAccess(b, 1) })
	row("BenchmarkCacheBankAccess", BenchmarkCacheBankAccess)

	fanout1 := row("BenchmarkCoordinatorFanout/shards=1", func(b *testing.B) { benchCoordinatorFanout(b, 1) })
	for _, shards := range []int{2, 4} {
		rec := row(fmt.Sprintf("BenchmarkCoordinatorFanout/shards=%d", shards), func(b *testing.B) { benchCoordinatorFanout(b, shards) })
		speedup(fmt.Sprintf("coordinator_fanout_%d_shards_vs_1", shards), fanout1, rec)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchJSONPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *benchJSONPath)

	// The regression guard runs after the report is written, so a failing
	// run still archives its numbers for inspection.
	if *replayFloor > 0 && replayed.InstsPerSec < *replayFloor {
		t.Fatalf("%s at %.0f insts/s is below the floor of %.0f insts/s", replayed.Name, replayed.InstsPerSec, *replayFloor)
	}
}
