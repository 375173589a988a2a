package main

import (
	"bytes"
	"encoding/json"
	"os"
)

// The tables below are the benchmark's contract: BENCHMARK.json is written
// from them (--manifest) and a test keeps the committed file in sync.

// runSeconds is the timed phase the manifest asks for.
const runSeconds = 15

// workloadWhy says, per workload, why it exists and which layers it loads
// and bypasses (at most 200 characters, one line).
var workloadWhy = map[string]string{
	"cold_best":    "fresh lab+server per POST /v1/best: loads interp, trace capture, cpisim replay, direct-mapped cache banks; serving tiers near idle. Cost of a restart or new Params",
	"serve_mix":    "2 clients, prewarmed surface-backed /v1/simulate (60% on-grid, 35% off-grid l2, 5% fifo): loads server tiers, surface, overlay, TPI math; simulator layers bypassed",
	"fanout":       "coordinator over 2 prewarmed backends, /v1/best at a fresh l2 per op: loads cluster ring, fan-out, merge, hedging and core range evaluation; no simulation passes",
	"ablate_assoc": "AssocStudy(8)+PolicyStudy(4,2) on a captured trace: set-assoc LRU/FIFO/PLRU kernels on the sequential replay path; HTTP and capture bypassed",
}

// endToEnd are the metrics every --trace 0 run reports. bound is the share
// of the parent's median by which a metric may worsen.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// layerMetric is one per-layer metric of the traced run and the end-to-end
// metric (on which workload) it should move.
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"gen.build_suite_ms", "ms", "lower", "setup_s on every workload"},
	{"interp.minsts_per_s", "Minst/s", "higher", "cold_best p50_ms, cpu_ms_per_op"},
	{"trace.capture_ms", "ms", "lower", "cold_best p50_ms"},
	{"trace.store_bytes", "bytes", "lower", "cold_best peak_rss_mb"},
	{"cpisim.replay_ms", "ms", "lower", "cold_best p50_ms"},
	{"cpisim.replay_minsts_per_s", "Minst/s", "higher", "cold_best p50_ms"},
	{"cpisim.replay_cpu_ms", "ms", "lower", "cold_best cpu_ms_per_op"},
	{"cpisim.assoc_replay_ms", "ms", "lower", "ablate_assoc p50_ms"},
	{"cache.probes_per_pass", "count", "lower", "cold_best and ablate_assoc p50_ms"},
	{"cache.replay_ns_per_probe", "ns", "lower", "cold_best and ablate_assoc p50_ms"},
	{"core.passes_run", "count", "lower", "cold_best p50_ms (expected 4); serve_mix and fanout setup_s"},
	{"core.pass_replays", "count", "higher", "cold_best p50_ms (expected 3); serve_mix and fanout setup_s"},
	{"core.memo_hit_ratio", "ratio", "higher", "cold_best p50_ms; serve_mix and fanout setup_s"},
	{"core.best_math_ms", "ms", "lower", "cold_best p50_ms (a fraction of a percent)"},
	{"core.eval_point_us", "us", "lower", "serve_mix p50_ms and p99_ms"},
	{"core.range_eval_ms", "ms", "lower", "fanout p50_ms"},
	{"server.decode_us", "us", "lower", "serve_mix p50_ms, p99_ms, ops_per_s"},
	{"server.key_us", "us", "lower", "serve_mix p50_ms, p99_ms, ops_per_s"},
	{"server.marshal_us", "us", "lower", "serve_mix p50_ms, p99_ms, ops_per_s"},
	{"server.handler_us.surface", "us", "lower", "serve_mix p50_ms, ops_per_s"},
	{"server.handler_us.overlay", "us", "lower", "serve_mix p50_ms, ops_per_s"},
	{"server.handler_us.hit", "us", "lower", "serve_mix p50_ms, ops_per_s"},
	{"server.handler_us.miss", "us", "lower", "serve_mix p99_ms, ops_per_s"},
	{"server.transport_us", "us", "lower", "serve_mix p50_ms, ops_per_s"},
	{"server.tier.surface_share", "ratio", "higher", "serve_mix p50_ms, ops_per_s"},
	{"server.tier.overlay_share", "ratio", "higher", "serve_mix p50_ms, ops_per_s"},
	{"server.tier.hit_share", "ratio", "higher", "serve_mix p50_ms, ops_per_s"},
	{"server.tier.miss_share", "ratio", "lower", "serve_mix p99_ms, ops_per_s"},
	{"server.trace_overhead_us", "us", "lower", "traced minus untraced serve_mix p50, same run"},
	{"surface.lookup_us", "us", "lower", "serve_mix p50_ms"},
	{"surface.hits", "count", "higher", "serve_mix p50_ms"},
	{"surface.overlay_hits", "count", "higher", "serve_mix p50_ms"},
	{"cluster.shard_request_ms", "ms", "lower", "fanout p50_ms, p90_ms"},
	{"cluster.self_ms", "ms", "lower", "fanout p50_ms, p90_ms"},
	{"cluster.subrequests_per_op", "count", "lower", "fanout p50_ms, p90_ms"},
	{"cluster.hedge_fired", "count", "lower", "fanout p90_ms, cpu_ms_per_op"},
	{"coldbest.decode_ms", "ms", "lower", "cold_best p50_ms"},
	{"coldbest.key_ms", "ms", "lower", "cold_best p50_ms"},
	{"coldbest.capture_ms", "ms", "lower", "cold_best p50_ms"},
	{"coldbest.replay1_ms", "ms", "lower", "cold_best p50_ms"},
	{"coldbest.replay2_ms", "ms", "lower", "cold_best p50_ms"},
	{"coldbest.replay3_ms", "ms", "lower", "cold_best p50_ms"},
	{"coldbest.tpi_math_ms", "ms", "lower", "cold_best p50_ms"},
	{"coldbest.marshal_ms", "ms", "lower", "cold_best p50_ms"},
	{"coldbest.op_ms", "ms", "lower", "cold_best p50_ms (untraced op, same run)"},
	{"coldbest.handler_ms", "ms", "lower", "cold_best p50_ms (server side of the traced op)"},
	{"coldbest.unattributed_ms", "ms", "lower", "cold_best p50_ms (pool queue, memo waits, overlap)"},
	{"coldbest.trace_overhead_ms", "ms", "lower", "traced minus untraced cold op, same run"},
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestDoc struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	doc := manifestDoc{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, manifestWorkload{w.name, workloadWhy[w.name]})
	}
	for _, m := range endToEnd {
		b := m.bound
		doc.EndToEnd = append(doc.EndToEnd, manifestMetric{m.name, m.unit, m.better, &b})
	}
	for _, m := range layerMetrics {
		doc.PerLayer = append(doc.PerLayer, manifestMetric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeManifest(path string) error {
	b, err := manifest()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
