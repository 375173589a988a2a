// Command perfbench is pipecache's end-to-end benchmark. It runs closed-loop
// workloads against in-process core.Lab, server.Server and
// cluster.Coordinator instances over loopback HTTP, checks every output, and
// prints its metrics as one JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it from
// source first:
//
//	bash perfbench/run.sh --workload cold_best --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all        # every workload, one after another
//	bash perfbench/run.sh --manifest            # rewrite BENCHMARK.json
//
// With --trace 0 the result holds the end-to-end metrics of the workload;
// with --trace 1 it holds the per-layer metrics of a separate traced pass
// (see traced.go). Lines before the result describe the host and the run.
// README.md lists the workloads, the metrics and which layer metric moves
// which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run builds its workload: setup_s is the
// median of these, and only the last instance is measured.
const setupReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: cold_best, serve_mix, fanout, ablate_assoc, or all")
	seed := fs.Uint64("seed", 1, "request-generator seed")
	seconds := fs.Int("seconds", runSeconds, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	manifest := fs.Bool("manifest", false, "write BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifest {
		return writeManifest("BENCHMARK.json")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *traced)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	var (
		res *result
		err error
	)
	switch *traced {
	case 0:
		res, err = runWorkload(w, *seed, time.Duration(*seconds)*time.Second)
	case 1:
		res, err = runTraced(*seed, time.Duration(*seconds)*time.Second)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	return printJSON(res)
}

// runAll runs every workload in its own process, so each reports its own
// peak RSS, and lets their output through.
func runAll(seed uint64, seconds, traced int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
	}
	return nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// runWorkload sets w up setupReps times, then runs its clients closed-loop
// for the timed phase and reports the end-to-end metrics.
func runWorkload(w workload, seed uint64, dur time.Duration) (*result, error) {
	var (
		inst   instance
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			// Hand the discarded instance's memory back, so peak RSS
			// reflects one instance rather than the garbage of several.
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	var (
		attempted, failed atomic.Int64
		lats              = make([][]float64, w.clients)
		wg                sync.WaitGroup
	)
	cpu0, start := cpuTime(), time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur || attempted.Load() < int64(w.minOps) {
				lat, err := inst.op(c)
				attempted.Add(1)
				if err != nil {
					if failed.Add(1) <= 5 {
						warnf("%s op failed: %v", w.name, err)
					}
					if failed.Load() > int64(w.minOps) {
						return // broken, not slow: stop rather than spin
					}
					continue
				}
				lats[c] = append(lats[c], ms(lat))
			}
		}(c)
	}
	wg.Wait()
	elapsed, cpu := time.Since(start), cpuTime()-cpu0

	checkFailed, invalid := inst.finish()
	failed.Add(int64(checkFailed))
	if invalid != nil {
		warnf("%s: invalid timed phase: %v", w.name, invalid)
	}
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	ops := attempted.Load()
	p50, err := percentile(all, 0.5)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{
		Correct:   failed.Load() == 0 && invalid == nil,
		Attempted: ops,
		Failed:    failed.Load(),
		Metrics: map[string]metric{
			"setup_s":       {median(setups), "s"},
			"p50_ms":        {p50, "ms"},
			"ops_per_s":     {float64(ops) / elapsed.Seconds(), "1/s"},
			"cpu_ms_per_op": {ms(cpu) / float64(ops), "ms"},
			"peak_rss_mb":   {peakRSSMB(), "MiB"},
		},
	}
	for _, m := range endToEnd {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			return nil, fmt.Errorf("%s: metric %s missing or not in %s", w.name, m.name, m.unit)
		}
	}
	detail := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"clients":    w.clients,
		"samples":    len(all),
		"elapsed_s":  elapsed.Seconds(),
		"setups_s":   setups,
		"fail_ratio": float64(failed.Load()) / float64(ops),
		"valid":      invalid == nil,
	}
	for _, q := range w.tails {
		key := fmt.Sprintf("p%g_ms", 100*q)
		if v, err := percentile(all, q); err == nil {
			detail[key] = v
		} else {
			detail[key] = err.Error()
		}
	}
	workers := w.workers()
	workers["clients"] = w.clients
	if err := printJSON(map[string]any{"host": hostInfo(workers), "run": detail}); err != nil {
		return nil, err
	}
	return res, nil
}
